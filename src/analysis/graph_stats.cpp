#include "analysis/graph_stats.h"

#include <algorithm>
#include <deque>
#include <limits>
#include <stdexcept>

namespace byzcast::analysis {

namespace {
constexpr std::size_t kUnreachable = std::numeric_limits<std::size_t>::max();
}

DegreeStats degree_stats(const Adjacency& adj) {
  DegreeStats stats;
  if (adj.empty()) return stats;
  stats.min = kUnreachable;
  double sum = 0;
  for (const auto& neighbors : adj) {
    stats.min = std::min(stats.min, neighbors.size());
    stats.max = std::max(stats.max, neighbors.size());
    sum += static_cast<double>(neighbors.size());
  }
  stats.mean = sum / static_cast<double>(adj.size());
  return stats;
}

std::vector<std::size_t> hop_distances(const Adjacency& adj,
                                       std::size_t source) {
  std::vector<std::size_t> dist(adj.size(), kUnreachable);
  if (source >= adj.size()) return dist;
  std::deque<std::size_t> queue{source};
  dist[source] = 0;
  while (!queue.empty()) {
    std::size_t u = queue.front();
    queue.pop_front();
    for (std::size_t v : adj[u]) {
      if (dist[v] == kUnreachable) {
        dist[v] = dist[u] + 1;
        queue.push_back(v);
      }
    }
  }
  return dist;
}

std::size_t component_count(const Adjacency& adj) {
  std::vector<bool> seen(adj.size(), false);
  std::size_t components = 0;
  for (std::size_t start = 0; start < adj.size(); ++start) {
    if (seen[start]) continue;
    ++components;
    std::vector<std::size_t> stack{start};
    seen[start] = true;
    while (!stack.empty()) {
      std::size_t u = stack.back();
      stack.pop_back();
      for (std::size_t v : adj[u]) {
        if (!seen[v]) {
          seen[v] = true;
          stack.push_back(v);
        }
      }
    }
  }
  return components;
}

std::size_t hop_diameter(const Adjacency& adj) {
  if (adj.size() <= 1) return 0;
  std::size_t diameter = 0;
  for (std::size_t source = 0; source < adj.size(); ++source) {
    for (std::size_t d : hop_distances(adj, source)) {
      if (d == kUnreachable) return kUnreachable;
      diameter = std::max(diameter, d);
    }
  }
  return diameter;
}

CdsCheck check_cds(const Adjacency& adj,
                   const std::vector<std::uint8_t>& member) {
  const std::size_t n = adj.size();
  if (member.size() != n) {
    throw std::invalid_argument("check_cds: one member flag per vertex");
  }
  CdsCheck check;
  check.dominating = true;
  std::size_t members = 0;
  std::size_t first = n;
  for (std::size_t v = 0; v < n; ++v) {
    if (member[v] != 0) {
      if (members++ == 0) first = v;
    } else if (std::none_of(adj[v].begin(), adj[v].end(),
                            [&](std::size_t u) { return member[u] != 0; })) {
      check.dominating = false;
    }
  }
  if (members == 0) return check;

  // Connectivity of the member-induced subgraph: DFS from one member.
  std::vector<std::uint8_t> seen(n, 0);
  std::vector<std::size_t> stack{first};
  seen[first] = 1;
  std::size_t reached = 1;
  while (!stack.empty()) {
    const std::size_t u = stack.back();
    stack.pop_back();
    for (std::size_t v : adj[u]) {
      if (member[v] != 0 && seen[v] == 0) {
        seen[v] = 1;
        ++reached;
        stack.push_back(v);
      }
    }
  }
  check.backbone_connected = reached == members;
  return check;
}

OverlayReport evaluate_overlay(const Adjacency& adj,
                               const std::vector<NodeId>& backbone) {
  OverlayReport report;
  report.backbone_size = backbone.size();
  if (adj.empty()) return report;

  std::vector<std::uint8_t> member(adj.size(), 0);
  for (NodeId m : backbone) member.at(m) = 1;
  const CdsCheck check = check_cds(adj, member);
  report.dominating = check.dominating;
  report.backbone_connected = check.backbone_connected;

  // Stretch: BFS over the overlay-routing graph, where an edge u->v is
  // usable when the *transmitting* side forwards — i.e. u is the source
  // of the path or a backbone member.
  if (!report.dominating || !report.backbone_connected) return report;
  double stretch_sum = 0;
  std::size_t pairs = 0;
  for (std::size_t source = 0; source < adj.size(); ++source) {
    std::vector<std::size_t> direct = hop_distances(adj, source);
    // Overlay-routing BFS from source.
    std::vector<std::size_t> via(adj.size(), kUnreachable);
    std::deque<std::size_t> queue{source};
    via[source] = 0;
    while (!queue.empty()) {
      std::size_t u = queue.front();
      queue.pop_front();
      bool forwards = (u == source) || member[u] != 0;
      if (!forwards) continue;  // reached but does not retransmit
      for (std::size_t v : adj[u]) {
        if (via[v] == kUnreachable) {
          via[v] = via[u] + 1;
          queue.push_back(v);
        }
      }
    }
    for (std::size_t v = 0; v < adj.size(); ++v) {
      if (v == source || direct[v] == kUnreachable) continue;
      if (via[v] == kUnreachable) return report;  // not fully usable
      stretch_sum += static_cast<double>(via[v]) /
                     static_cast<double>(direct[v]);
      ++pairs;
    }
  }
  report.mean_stretch = pairs == 0 ? 0 : stretch_sum / static_cast<double>(pairs);
  return report;
}

}  // namespace byzcast::analysis
