#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>

#include "des/rng.h"
#include "geo/grid_index.h"
#include "geo/placement.h"
#include "geo/vec2.h"

namespace byzcast::geo {
namespace {

TEST(Vec2, Arithmetic) {
  Vec2 a{1, 2}, b{3, 4};
  EXPECT_EQ((a + b), (Vec2{4, 6}));
  EXPECT_EQ((b - a), (Vec2{2, 2}));
  EXPECT_EQ((a * 2.0), (Vec2{2, 4}));
  EXPECT_DOUBLE_EQ(distance(a, b), std::sqrt(8.0));
  EXPECT_DOUBLE_EQ(distance_sq(a, b), 8.0);
}

TEST(Area, ContainsAndClamp) {
  Area area{10, 20};
  EXPECT_TRUE(area.contains({5, 5}));
  EXPECT_FALSE(area.contains({-1, 5}));
  EXPECT_FALSE(area.contains({5, 21}));
  EXPECT_EQ(area.clamp({-3, 25}), (Vec2{0, 20}));
  EXPECT_EQ(area.clamp({5, 5}), (Vec2{5, 5}));
}

/// Items within `radius` of `center`, by the same `<=` test the index
/// applies, over every point.
std::vector<std::size_t> brute_force(const std::vector<Vec2>& points,
                                     Vec2 center, double radius) {
  std::vector<std::size_t> out;
  for (std::size_t i = 0; i < points.size(); ++i) {
    if (distance_sq(points[i], center) <= radius * radius) out.push_back(i);
  }
  return out;
}

TEST(GridIndex, RejectsBadConfig) {
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_THROW(GridIndex({{1, 1}}, 0), std::invalid_argument);
  EXPECT_THROW(GridIndex({{1, 1}}, -1), std::invalid_argument);
  EXPECT_THROW(GridIndex({{1, 1}, {std::nan(""), 0}}, 1),
               std::invalid_argument);
  EXPECT_THROW(GridIndex({{0, inf}}, 1), std::invalid_argument);
  // Finite points whose bounding box is wider than any double.
  EXPECT_THROW(GridIndex({{-1e308, 0}, {1e308, 0}}, 1),
               std::invalid_argument);
  std::vector<std::size_t> out{7};
  GridIndex({}, 1).query({0, 0}, 1e9, out);  // empty sets are fine
  EXPECT_TRUE(out.empty());
}

TEST(GridIndex, QueryMatchesBruteForce) {
  des::Rng rng(17);
  std::vector<Vec2> points;
  for (int i = 0; i < 200; ++i) {
    points.push_back({rng.uniform(0, 100), rng.uniform(0, 100)});
  }
  GridIndex index(points, 15);

  std::vector<std::size_t> got;
  for (int trial = 0; trial < 50; ++trial) {
    Vec2 center{rng.uniform(0, 100), rng.uniform(0, 100)};
    double radius = rng.uniform(1, 30);
    index.query(center, radius, got);
    std::sort(got.begin(), got.end());
    EXPECT_EQ(got, brute_force(points, center, radius)) << "trial " << trial;
  }
}

TEST(GridIndex, NegativeCoordinatesMatchBruteForce) {
  // The grid fits its origin to the points: no clamping onto the
  // positive quadrant, and distances on the original coordinates.
  des::Rng rng(29);
  std::vector<Vec2> points;
  for (int i = 0; i < 300; ++i) {
    points.push_back({rng.uniform(-450, -150), rng.uniform(-60, 90)});
  }
  GridIndex index(points, 20);
  std::vector<std::size_t> got;
  for (int trial = 0; trial < 60; ++trial) {
    Vec2 center{rng.uniform(-500, -100), rng.uniform(-100, 130)};
    double radius = rng.uniform(0, 45);
    index.query(center, radius, got);
    std::sort(got.begin(), got.end());
    EXPECT_EQ(got, brute_force(points, center, radius)) << "trial " << trial;
  }
  for (std::size_t i = 0; i < points.size(); ++i) {
    EXPECT_EQ(index.position(i), points[i]);
  }
}

TEST(GridIndex, FarFlungPointsBuildACompactGrid) {
  // 1e12 cells of size 1 per axis would be needed at the requested cell
  // size; the grid widens its cells instead and stays exact.
  const std::vector<Vec2> pair{{0, 0}, {1e12, 1e12}};
  GridIndex index(pair, 1);
  EXPECT_LE(index.cell_count(), 4 * pair.size() + 16);
  std::vector<std::size_t> got;
  for (Vec2 center : {Vec2{0, 0}, Vec2{1e12, 1e12}, Vec2{5e11, 5e11},
                      Vec2{-3, 2}}) {
    for (double radius : {0.0, 1.0, 7.1e11, 2e12}) {
      index.query(center, radius, got);
      std::sort(got.begin(), got.end());
      EXPECT_EQ(got, brute_force(pair, center, radius))
          << "center (" << center.x << "," << center.y << ") r=" << radius;
    }
  }

  // A dense cluster plus one far outlier: still O(n) cells, still exact.
  des::Rng rng(31);
  std::vector<Vec2> points;
  for (int i = 0; i < 100; ++i) {
    points.push_back({rng.uniform(0, 50), rng.uniform(0, 50)});
  }
  points.push_back({-1e9, 3e9});
  GridIndex mixed(points, 5);
  EXPECT_LE(mixed.cell_count(), 4 * points.size() + 16);
  for (int trial = 0; trial < 30; ++trial) {
    Vec2 center{rng.uniform(-10, 60), rng.uniform(-10, 60)};
    mixed.query(center, 8, got);
    std::sort(got.begin(), got.end());
    EXPECT_EQ(got, brute_force(points, center, 8)) << "trial " << trial;
  }
  mixed.query({-1e9, 3e9}, 0, got);
  EXPECT_EQ(got, (std::vector<std::size_t>{100}));
}

TEST(GridIndex, PointsExactlyOnCellEdgesMatchBruteForce) {
  // Points and query centres sitting exactly on cell boundaries (and the
  // bounding box's corners), with radii that touch neighbours at exact
  // cell multiples — the off-by-one hot spots for truncation-based
  // bucketing.
  std::vector<Vec2> points;
  for (double x : {0.0, 10.0, 20.0, 50.0, 90.0, 100.0}) {
    for (double y : {0.0, 10.0, 50.0, 100.0}) points.push_back({x, y});
  }
  GridIndex index(points, 10);

  std::vector<std::size_t> got;
  for (const Vec2& center : points) {
    for (double radius : {0.0, 10.0, 15.0, 20.0}) {
      index.query(center, radius, got);
      std::sort(got.begin(), got.end());
      EXPECT_EQ(got, brute_force(points, center, radius))
          << "center (" << center.x << "," << center.y << ") r=" << radius;
    }
  }
}

TEST(GridIndex, ZeroRadiusQueryReturnsExactMatchesOnly) {
  GridIndex index({{5, 5}, {10, 10}, {5.5, 5}, {100, 100}}, 10);
  std::vector<std::size_t> out;
  index.query({5, 5}, 0, out);
  EXPECT_EQ(out, (std::vector<std::size_t>{0}));
  index.query({10, 10}, 0, out);  // on a cell corner
  EXPECT_EQ(out, (std::vector<std::size_t>{1}));
  index.query({100, 100}, 0, out);  // the bounding box's far corner
  EXPECT_EQ(out, (std::vector<std::size_t>{3}));
  index.query({7, 7}, 0, out);
  EXPECT_TRUE(out.empty());
}

TEST(GridIndex, OutOfBoundsPositionsAfterMobilityStayQueryable) {
  // Mobility scripts routinely leave the configured 100x100 area. The
  // grid built from the moved positions keeps them as they are (no
  // clamping onto the area's boundary) and finds them, also from query
  // centres outside both the area and the points' bounding box.
  GridIndex index({{150, -20}, {10, 10}}, 10);
  EXPECT_EQ(index.position(0), (Vec2{150, -20}));
  std::vector<std::size_t> out;
  index.query({150, -20}, 1, out);
  EXPECT_EQ(out, (std::vector<std::size_t>{0}));
  index.query({100, 0}, 1, out);  // where clamping would have put it
  EXPECT_TRUE(out.empty());
  index.query({50, 50}, 2, out);
  EXPECT_TRUE(out.empty());
  index.query({200, -60}, 65, out);  // centre outside; dist to item 0 ~64.0
  EXPECT_EQ(out, (std::vector<std::size_t>{0}));

  GridIndex moved({{-5, 105}, {10, 10}}, 10);
  moved.query({-5, 105}, 0.5, out);
  EXPECT_EQ(out, (std::vector<std::size_t>{0}));
  moved.query({0, 100}, 0.5, out);
  EXPECT_TRUE(out.empty());

  // Random points with query centres outside their bounding box.
  des::Rng rng(17);
  std::vector<Vec2> points;
  for (int i = 0; i < 200; ++i) {
    points.push_back({rng.uniform(0, 100), rng.uniform(0, 100)});
  }
  GridIndex cloud(points, 15);
  for (Vec2 center : {Vec2{150, -20}, Vec2{-40, 50}, Vec2{120, 130}}) {
    cloud.query(center, 60, out);
    std::sort(out.begin(), out.end());
    const auto want = brute_force(points, center, 60);
    EXPECT_FALSE(want.empty());
    EXPECT_EQ(out, want) << "center (" << center.x << "," << center.y << ")";
  }
}

TEST(GridIndex, HugeRadiusReturnsEverything) {
  // (center ± radius) / cell_size overflows size_t for large radii; the
  // span clamp must happen in double space, not after the cast.
  GridIndex index({{5, 5}, {50, 50}, {99, 99}}, 10);
  std::vector<std::size_t> out;
  index.query({50, 50}, 1e18, out);
  std::sort(out.begin(), out.end());
  EXPECT_EQ(out, (std::vector<std::size_t>{0, 1, 2}));
}

TEST(GridIndex, QueryCellsIsSupersetOfQuery) {
  des::Rng rng(23);
  std::vector<Vec2> points;
  for (int i = 0; i < 150; ++i) {
    points.push_back({rng.uniform(0, 100), rng.uniform(0, 100)});
  }
  GridIndex index(points, 12);
  std::vector<std::size_t> exact;
  std::vector<std::size_t> coarse;
  for (int trial = 0; trial < 30; ++trial) {
    Vec2 center{rng.uniform(-10, 110), rng.uniform(-10, 110)};
    double radius = rng.uniform(0, 40);
    index.query(center, radius, exact);
    index.query_cells(center, radius, coarse);
    std::sort(coarse.begin(), coarse.end());
    for (std::size_t item : exact) {
      EXPECT_TRUE(std::binary_search(coarse.begin(), coarse.end(), item))
          << "trial " << trial << " lost item " << item;
    }
  }
}

TEST(Placement, UniformStaysInArea) {
  des::Rng rng(3);
  Area area{200, 100};
  auto points = uniform_placement(500, area, rng);
  ASSERT_EQ(points.size(), 500u);
  for (const Vec2& p : points) EXPECT_TRUE(area.contains(p));
}

TEST(Placement, ChainIsExactlySpaced) {
  auto points = chain_placement(5, 10, 2);
  ASSERT_EQ(points.size(), 5u);
  for (std::size_t i = 0; i + 1 < points.size(); ++i) {
    EXPECT_DOUBLE_EQ(distance(points[i], points[i + 1]), 10.0);
  }
}

TEST(Placement, GridFillsArea) {
  auto points = grid_placement(9, {90, 90});
  ASSERT_EQ(points.size(), 9u);
  // 3x3 grid: distinct positions, all inside.
  for (const Vec2& p : points) EXPECT_TRUE((Area{90, 90}).contains(p));
  for (std::size_t i = 0; i < 9; ++i) {
    for (std::size_t j = i + 1; j < 9; ++j) {
      EXPECT_GT(distance(points[i], points[j]), 1.0);
    }
  }
}

TEST(Placement, ClusteredHasTwoDenseRegionsAndCorridor) {
  des::Rng rng(7);
  Area area{600, 300};
  auto points = clustered_placement(40, area, 4, 80, rng);
  ASSERT_EQ(points.size(), 40u);
  for (const Vec2& p : points) EXPECT_TRUE(area.contains(p));
  // The last 4 points are the corridor: evenly between cluster centres.
  Vec2 left{120, 150}, right{480, 150};
  for (std::size_t i = 36; i < 40; ++i) {
    EXPECT_DOUBLE_EQ(points[i].y, 150.0);
    EXPECT_GT(points[i].x, left.x);
    EXPECT_LT(points[i].x, right.x);
  }
  // Cluster points are within the disks.
  for (std::size_t i = 0; i < 36; ++i) {
    double d = std::min(distance(points[i], left), distance(points[i], right));
    EXPECT_LE(d, 80.0 + 1e-9);
  }
  EXPECT_THROW(clustered_placement(4, area, 3, 80, rng),
               std::invalid_argument);
}

TEST(Placement, RingIsEquidistantFromCentre) {
  Area area{400, 400};
  auto points = ring_placement(12, area, 150);
  ASSERT_EQ(points.size(), 12u);
  Vec2 centre{200, 200};
  for (const Vec2& p : points) {
    EXPECT_NEAR(distance(p, centre), 150.0, 1e-9);
  }
  // Neighbouring points are closer than opposite ones (it is a circle).
  EXPECT_LT(distance(points[0], points[1]), distance(points[0], points[6]));
}

TEST(Placement, ConnectivityCheck) {
  // A chain with spacing < range is connected...
  auto chain = chain_placement(10, 10);
  EXPECT_TRUE(unit_disk_connected(chain, 11));
  // ...and disconnected when the range shrinks below the spacing.
  EXPECT_FALSE(unit_disk_connected(chain, 9));
  EXPECT_TRUE(unit_disk_connected({}, 1));
  EXPECT_TRUE(unit_disk_connected({{0, 0}}, 1));
}

TEST(Placement, AdjacencyIsSymmetricWithoutSelfLoops) {
  auto points = chain_placement(4, 10);
  auto adj = unit_disk_adjacency(points, 15);
  for (std::size_t i = 0; i < adj.size(); ++i) {
    EXPECT_TRUE(std::find(adj[i].begin(), adj[i].end(), i) == adj[i].end());
    for (std::size_t j : adj[i]) {
      EXPECT_NE(std::find(adj[j].begin(), adj[j].end(), i), adj[j].end());
    }
  }
  // spacing 10, range 15: each node sees only immediate neighbours.
  EXPECT_EQ(adj[0].size(), 1u);
  EXPECT_EQ(adj[1].size(), 2u);
}

TEST(Placement, ConnectedUniformEventuallyConnects) {
  des::Rng rng(5);
  auto points = connected_uniform_placement(30, {300, 300}, 120, rng);
  EXPECT_TRUE(unit_disk_connected(points, 120));
}

TEST(Placement, ConnectedUniformThrowsWhenImpossible) {
  des::Rng rng(5);
  // 50 nodes with 1m range in a 10km field: essentially never connected.
  EXPECT_THROW(
      connected_uniform_placement(50, {10000, 10000}, 1, rng, /*attempts=*/3),
      std::runtime_error);
}

}  // namespace
}  // namespace byzcast::geo
