#include "geo/placement.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "geo/grid_index.h"

namespace byzcast::geo {

std::vector<Vec2> uniform_placement(std::size_t n, Area area, des::Rng& rng) {
  std::vector<Vec2> points;
  points.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    points.push_back({rng.uniform(0, area.width), rng.uniform(0, area.height)});
  }
  return points;
}

std::vector<Vec2> connected_uniform_placement(std::size_t n, Area area,
                                              double range, des::Rng& rng,
                                              int max_attempts) {
  for (int attempt = 0; attempt < max_attempts; ++attempt) {
    std::vector<Vec2> points = uniform_placement(n, area, rng);
    if (unit_disk_connected(points, range)) return points;
  }
  throw std::runtime_error(
      "connected_uniform_placement: could not draw a connected topology; "
      "increase density or transmission range");
}

std::vector<Vec2> chain_placement(std::size_t n, double spacing,
                                  double margin) {
  std::vector<Vec2> points;
  points.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    points.push_back({margin + spacing * static_cast<double>(i), margin});
  }
  return points;
}

std::vector<Vec2> grid_placement(std::size_t n, Area area) {
  std::vector<Vec2> points;
  points.reserve(n);
  auto cols = static_cast<std::size_t>(
      std::ceil(std::sqrt(static_cast<double>(n))));
  std::size_t rows = (n + cols - 1) / cols;
  for (std::size_t i = 0; i < n; ++i) {
    std::size_t r = i / cols;
    std::size_t c = i % cols;
    points.push_back(
        {(static_cast<double>(c) + 0.5) * area.width / static_cast<double>(cols),
         (static_cast<double>(r) + 0.5) * area.height /
             static_cast<double>(rows)});
  }
  return points;
}

std::vector<Vec2> clustered_placement(std::size_t n, Area area,
                                      std::size_t corridor_nodes,
                                      double cluster_radius, des::Rng& rng) {
  if (corridor_nodes + 2 > n) {
    throw std::invalid_argument(
        "clustered_placement: need at least 2 cluster nodes");
  }
  std::vector<Vec2> points;
  points.reserve(n);
  Vec2 left{area.width * 0.2, area.height / 2};
  Vec2 right{area.width * 0.8, area.height / 2};
  std::size_t cluster_total = n - corridor_nodes;
  for (std::size_t i = 0; i < cluster_total; ++i) {
    Vec2 centre = i % 2 == 0 ? left : right;
    // Uniform over the disk via sqrt-radius sampling.
    double r = cluster_radius * std::sqrt(rng.next_double());
    double theta = rng.uniform(0, 2 * 3.14159265358979);
    points.push_back(area.clamp(
        {centre.x + r * std::cos(theta), centre.y + r * std::sin(theta)}));
  }
  for (std::size_t i = 0; i < corridor_nodes; ++i) {
    double frac = static_cast<double>(i + 1) /
                  static_cast<double>(corridor_nodes + 1);
    points.push_back({left.x + (right.x - left.x) * frac, left.y});
  }
  return points;
}

std::vector<Vec2> ring_placement(std::size_t n, Area area, double radius) {
  std::vector<Vec2> points;
  points.reserve(n);
  Vec2 centre{area.width / 2, area.height / 2};
  for (std::size_t i = 0; i < n; ++i) {
    double theta = 2 * 3.14159265358979 * static_cast<double>(i) /
                   static_cast<double>(n);
    points.push_back(area.clamp({centre.x + radius * std::cos(theta),
                                 centre.y + radius * std::sin(theta)}));
  }
  return points;
}

namespace {

/// Below this the O(n^2) pair scan beats building a grid.
constexpr std::size_t kGridCutoff = 256;

}  // namespace

std::vector<std::vector<std::size_t>> unit_disk_adjacency(
    const std::vector<Vec2>& points, double range) {
  const std::size_t n = points.size();
  std::vector<std::vector<std::size_t>> adj(n);
  const double r_sq = range * range;
  if (n <= kGridCutoff || range <= 0) {
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = i + 1; j < n; ++j) {
        if (distance_sq(points[i], points[j]) <= r_sq) {
          adj[i].push_back(j);
          adj[j].push_back(i);
        }
      }
    }
    return adj;
  }

  // Cell walk: O(n * density) instead of O(n^2). The grid tests
  // distances on the original coordinates, so each pair passes exactly
  // the same `<= r_sq` test as the scan above.
  const GridIndex index(points, range);
  std::vector<std::size_t> hits;
  for (std::size_t i = 0; i < n; ++i) {
    index.query(points[i], range, hits);
    std::sort(hits.begin(), hits.end());
    adj[i].reserve(hits.size() - 1);
    for (std::size_t j : hits) {
      if (j != i) adj[i].push_back(j);
    }
  }
  return adj;
}

bool unit_disk_connected(const std::vector<Vec2>& points, double range) {
  if (points.empty()) return true;
  auto adj = unit_disk_adjacency(points, range);
  std::vector<bool> seen(points.size(), false);
  std::vector<std::size_t> stack{0};
  seen[0] = true;
  std::size_t count = 1;
  while (!stack.empty()) {
    std::size_t u = stack.back();
    stack.pop_back();
    for (std::size_t v : adj[u]) {
      if (!seen[v]) {
        seen[v] = true;
        ++count;
        stack.push_back(v);
      }
    }
  }
  return count == points.size();
}

}  // namespace byzcast::geo
