#include <gtest/gtest.h>

#include <cstdint>
#include <limits>

#include "analysis/graph_stats.h"
#include "des/rng.h"
#include "geo/placement.h"
#include "sim/runner.h"

namespace byzcast::analysis {
namespace {

Adjacency chain(std::size_t n) {
  Adjacency adj(n);
  for (std::size_t i = 0; i + 1 < n; ++i) {
    adj[i].push_back(i + 1);
    adj[i + 1].push_back(i);
  }
  return adj;
}

TEST(GraphStats, DegreeStats) {
  Adjacency adj = chain(4);  // degrees 1,2,2,1
  DegreeStats stats = degree_stats(adj);
  EXPECT_EQ(stats.min, 1u);
  EXPECT_EQ(stats.max, 2u);
  EXPECT_DOUBLE_EQ(stats.mean, 1.5);
  EXPECT_DOUBLE_EQ(degree_stats({}).mean, 0.0);
}

TEST(GraphStats, HopDistancesAndDiameter) {
  Adjacency adj = chain(5);
  auto dist = hop_distances(adj, 0);
  EXPECT_EQ(dist[0], 0u);
  EXPECT_EQ(dist[4], 4u);
  EXPECT_EQ(hop_diameter(adj), 4u);
  EXPECT_EQ(hop_diameter(chain(1)), 0u);

  Adjacency disconnected(3);  // no edges
  EXPECT_EQ(hop_diameter(disconnected),
            std::numeric_limits<std::size_t>::max());
  EXPECT_EQ(hop_distances(disconnected, 0)[2],
            std::numeric_limits<std::size_t>::max());
}

TEST(GraphStats, ComponentCount) {
  EXPECT_EQ(component_count({}), 0u);
  EXPECT_EQ(component_count(chain(5)), 1u);
  Adjacency two(4);
  two[0].push_back(1);
  two[1].push_back(0);
  EXPECT_EQ(component_count(two), 3u);  // {0,1}, {2}, {3}
}

// The definition of a connected dominating set, stated directly on the
// points rather than on an adjacency list: a vertex is dominated when it
// is a member or a member lies within range; the members are connected
// when there are some and every pair is linked by a chain of in-range
// members (Warshall's transitive closure, not a graph search).
CdsCheck brute_force_cds(const std::vector<geo::Vec2>& points, double range,
                         const std::vector<std::uint8_t>& member) {
  const std::size_t n = points.size();
  auto linked = [&](std::size_t a, std::size_t b) {
    return geo::distance_sq(points[a], points[b]) <= range * range;
  };
  CdsCheck want;
  want.dominating = true;
  for (std::size_t v = 0; v < n; ++v) {
    bool covered = member[v] != 0;
    for (std::size_t u = 0; u < n; ++u) {
      if (u != v && member[u] != 0 && linked(u, v)) covered = true;
    }
    if (!covered) want.dominating = false;
  }
  std::vector<std::vector<bool>> reach(n, std::vector<bool>(n, false));
  for (std::size_t a = 0; a < n; ++a) {
    for (std::size_t b = 0; b < n; ++b) reach[a][b] = a == b || linked(a, b);
  }
  for (std::size_t k = 0; k < n; ++k) {
    if (member[k] == 0) continue;
    for (std::size_t i = 0; i < n; ++i) {
      if (member[i] == 0 || !reach[i][k]) continue;
      for (std::size_t j = 0; j < n; ++j) {
        if (member[j] != 0 && reach[k][j]) reach[i][j] = true;
      }
    }
  }
  bool any = false;
  bool all_linked = true;
  for (std::size_t i = 0; i < n; ++i) {
    if (member[i] == 0) continue;
    any = true;
    for (std::size_t j = 0; j < n; ++j) {
      if (member[j] != 0 && !reach[i][j]) all_linked = false;
    }
  }
  want.backbone_connected = any && all_linked;
  return want;
}

TEST(CdsCheck, MatchesTheDefinitionOnRandomUnitDiskGraphs) {
  const double ranges[] = {12, 25, 40, 70};
  const double member_share[] = {0.0, 0.1, 0.3, 0.6, 0.9, 1.0};
  std::size_t dominating = 0;
  std::size_t connected = 0;
  std::size_t both = 0;
  constexpr std::size_t kGraphs = 240;
  for (std::size_t trial = 0; trial < kGraphs; ++trial) {
    des::Rng rng(1000 + trial);
    const std::size_t n = rng.next_below(41);  // 0..40 nodes
    const double range = ranges[trial % 4];
    const double share = member_share[(trial / 4) % 6];
    std::vector<geo::Vec2> points(n);
    std::vector<std::uint8_t> member(n, 0);
    for (std::size_t v = 0; v < n; ++v) {
      points[v] = {rng.uniform(0, 100), rng.uniform(0, 100)};
      member[v] = rng.chance(share) ? 1 : 0;
    }
    const CdsCheck want = brute_force_cds(points, range, member);
    const CdsCheck got =
        check_cds(geo::unit_disk_adjacency(points, range), member);
    EXPECT_EQ(got.dominating, want.dominating) << "graph " << trial;
    EXPECT_EQ(got.backbone_connected, want.backbone_connected)
        << "graph " << trial;
    dominating += want.dominating ? 1 : 0;
    connected += want.backbone_connected ? 1 : 0;
    both += want.dominating && want.backbone_connected ? 1 : 0;
  }
  // The sample must exercise every outcome of both halves.
  EXPECT_GT(dominating, 0u);
  EXPECT_LT(dominating, kGraphs);
  EXPECT_GT(connected, 0u);
  EXPECT_LT(connected, kGraphs);
  EXPECT_GT(both, 0u);
}

TEST(CdsCheck, EmptyGraphSingletonAndEmptyMemberSet) {
  // The empty graph is vacuously dominated; no members, no backbone.
  CdsCheck empty = check_cds({}, {});
  EXPECT_TRUE(empty.dominating);
  EXPECT_FALSE(empty.backbone_connected);

  CdsCheck lone_outsider = check_cds(Adjacency(1), {0});
  EXPECT_FALSE(lone_outsider.dominating);
  EXPECT_FALSE(lone_outsider.backbone_connected);
  CdsCheck lone_member = check_cds(Adjacency(1), {1});
  EXPECT_TRUE(lone_member.dominating);
  EXPECT_TRUE(lone_member.backbone_connected);

  CdsCheck nobody = check_cds(chain(3), {0, 0, 0});
  EXPECT_FALSE(nobody.dominating);
  EXPECT_FALSE(nobody.backbone_connected);
  CdsCheck middle = check_cds(chain(3), {0, 1, 0});
  EXPECT_TRUE(middle.dominating);
  EXPECT_TRUE(middle.backbone_connected);

  EXPECT_THROW(check_cds(chain(3), {1, 1}), std::invalid_argument);
  EXPECT_THROW(evaluate_overlay(chain(3), {3}), std::out_of_range);
}

/// evaluate_overlay's verdict over the correct-node subgraph: every
/// seed-correct node plus each joiner serving as an overlay member (a
/// joiner need not be dominated; it may carry the backbone).
bool evaluate_correct_subgraph(sim::Network& network) {
  std::vector<bool> in_overlay(network.node_count(), false);
  for (NodeId m : network.overlay_members()) in_overlay[m] = true;
  std::vector<NodeId> vertices = network.correct_nodes();
  for (NodeId id = static_cast<NodeId>(network.config().n);
       id < network.node_count(); ++id) {
    if (in_overlay[id]) vertices.push_back(id);
  }
  std::vector<geo::Vec2> points;
  std::vector<NodeId> backbone;
  for (std::size_t i = 0; i < vertices.size(); ++i) {
    points.push_back(network.position_of(vertices[i]));
    if (in_overlay[vertices[i]]) backbone.push_back(static_cast<NodeId>(i));
  }
  const OverlayReport report = evaluate_overlay(
      geo::unit_disk_adjacency(points, network.config().tx_range), backbone);
  return report.dominating && report.backbone_connected;
}

TEST(CdsCheck, NetworkPredicateMatchesEvaluateOverlay) {
  std::vector<sim::ScenarioConfig> scenarios;
  for (std::uint64_t seed : {3, 5, 8, 13}) {
    sim::ScenarioConfig config;
    config.seed = seed;
    config.n = 30;
    config.area = {450, 450};
    config.tx_range = 130;
    config.num_broadcasts = 0;
    config.adversaries = {{byz::AdversaryKind::kMute, 3},
                          {byz::AdversaryKind::kHelloLiar, 2}};
    if (seed == 8) {
      // A joiner mid-field, one at the edge, then a crash of the first.
      config.fault_schedule = sim::FaultSchedule::parse(
          "t=2 join pos=225,225\n"
          "t=3 join pos=440,10\n"
          "t=5 crash node=30\n");
    }
    scenarios.push_back(config);
  }
  // Four seed nodes 200 m apart at 120 m range share no link; three
  // joiners placed between them carry the whole backbone.
  sim::ScenarioConfig bridged;
  bridged.n = 4;
  bridged.placement = sim::PlacementKind::kChain;
  bridged.chain_spacing = 200;
  bridged.tx_range = 120;
  bridged.num_broadcasts = 0;
  bridged.fault_schedule = sim::FaultSchedule::parse(
      "t=1 join pos=101,1\nt=1 join pos=301,1\nt=1 join pos=501,1\n");
  scenarios.push_back(bridged);

  std::size_t healthy = 0;
  std::size_t unhealthy = 0;
  for (const sim::ScenarioConfig& config : scenarios) {
    sim::Network network(config);
    bool last = false;
    for (int step = 1; step <= 16; ++step) {
      network.simulator().run_until(des::millis(500) * step);
      last = evaluate_correct_subgraph(network);
      EXPECT_EQ(network.correct_overlay_connected_and_dominating(), last)
          << "n=" << config.n << " seed " << config.seed << " at "
          << step * 500 << " ms";
      ++(last ? healthy : unhealthy);
    }
    if (config.n == 4) {
      EXPECT_TRUE(last) << "the joiners never carried the backbone";
    }
  }
  EXPECT_GT(healthy, 0u);
  EXPECT_GT(unhealthy, 0u);
}

TEST(GraphStats, OverlayReportOnChain) {
  Adjacency adj = chain(5);
  // Interior nodes as backbone: dominating, connected, stretch 1.
  OverlayReport good = evaluate_overlay(adj, {1, 2, 3});
  EXPECT_EQ(good.backbone_size, 3u);
  EXPECT_TRUE(good.dominating);
  EXPECT_TRUE(good.backbone_connected);
  EXPECT_DOUBLE_EQ(good.mean_stretch, 1.0);

  // Missing the middle: not connected (and node 0/4 coverage aside).
  OverlayReport broken = evaluate_overlay(adj, {1, 3});
  EXPECT_FALSE(broken.backbone_connected);

  // Empty backbone on a multi-node chain dominates nothing.
  OverlayReport none = evaluate_overlay(adj, {});
  EXPECT_FALSE(none.dominating);
}

TEST(GraphStats, StretchDetectsDetours) {
  // Square 0-1-2-3-0 plus diagonal 0-2. Backbone {1} forces 0->2 traffic
  // through node 1? No: 0 transmits directly to 2 (source forwards).
  // Instead check 3->1: direct 3-0-1 or 3-2-1 (2 hops); with backbone {0}
  // route 3 -> 0 -> 1 works (2 hops, 0 forwards), but 3 -> 2 -> 1 is
  // unusable (2 not in backbone). Build a case with real stretch:
  // chain 0-1-2 plus edge 0-3, 3-2 (alternate path through 3).
  Adjacency adj(4);
  auto link = [&](std::size_t a, std::size_t b) {
    adj[a].push_back(b);
    adj[b].push_back(a);
  };
  link(0, 1);
  link(1, 2);
  link(0, 3);
  link(3, 2);
  // Backbone {3}: 0->2 direct shortest is 2 hops (via 1 or 3); via the
  // backbone it is 0-3-2, also 2 hops => stretch 1. But 1->3: shortest
  // 1-0-3 = 2; via backbone: 1's frame reaches 0 and 2 (one hop,
  // non-forwarding)... neither forwards; 3 unreachable except... 1
  // transmits (source) reaching 0,2; 0 not backbone: stops; so only
  // backbone member 3 forwards but never got it => unusable, report
  // returns early with stretch 0.
  OverlayReport r = evaluate_overlay(adj, {3});
  // 1's neighbours are {0,2}: 3 does not dominate 1.
  EXPECT_FALSE(r.dominating);

  // Backbone {0, 2}: 0-2 not adjacent => backbone disconnected.
  OverlayReport r2 = evaluate_overlay(adj, {0, 2});
  EXPECT_FALSE(r2.backbone_connected);

  // Backbone {1, 0, 3}: connected, dominating; 2->? all shortest paths
  // available => stretch 1.
  OverlayReport r3 = evaluate_overlay(adj, {0, 1, 3});
  EXPECT_TRUE(r3.dominating);
  EXPECT_TRUE(r3.backbone_connected);
  EXPECT_GE(r3.mean_stretch, 1.0);
}

TEST(GraphStats, LiveOverlayFromScenarioIsHighQuality) {
  sim::ScenarioConfig config;
  config.seed = 3;
  config.n = 40;
  config.area = {500, 500};
  config.tx_range = 140;
  sim::Network network(config);
  network.simulator().run_until(des::seconds(8));

  // Ground-truth adjacency at the current (static) positions.
  std::vector<geo::Vec2> points;
  for (NodeId id = 0; id < network.node_count(); ++id) {
    points.push_back(network.position_of(id));
  }
  Adjacency adj = geo::unit_disk_adjacency(points, config.tx_range);

  OverlayReport report = evaluate_overlay(adj, network.overlay_members());
  EXPECT_TRUE(report.dominating);
  EXPECT_TRUE(report.backbone_connected);
  EXPECT_LT(report.backbone_size, config.n);
  // Id-based Wu-Li backbones cost little path stretch.
  EXPECT_GE(report.mean_stretch, 1.0);
  EXPECT_LT(report.mean_stretch, 1.5);
}

}  // namespace
}  // namespace byzcast::analysis
