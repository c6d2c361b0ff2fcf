// Cross-module integration scenarios, including the paper's headline
// dynamic: a mute overlay node gets detected by MUTE, distrusted by
// TRUST, routed around by the overlay election — and dissemination speeds
// back up (§3.3, Lemmas 3.7-3.9).
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>

#include "byz/adversary.h"
#include "core/byzcast_node.h"
#include "mobility/static_mobility.h"
#include "radio/medium.h"
#include "sim/runner.h"

namespace byzcast {
namespace {

// ---------------------------------------------------------------------------
// Hand-built diamond: S --- X --- Y with mute M connected to all three,
// holding the highest id so the election naturally favours it.
//
//        M(3)  <- mute, claims overlay
//       / | \    M reaches all three
//  S(0)--X(1)--Y(2)
//
// S-Y are out of range of each other; X and M are the only relays.
// ---------------------------------------------------------------------------
class DiamondFixture : public ::testing::Test {
 protected:
  DiamondFixture() : pki_(des::Rng(5)) {
    radio::MediumConfig mc;  // default jitter: realistic collisions
    medium_ = std::make_unique<radio::Medium>(
        sim_, std::make_unique<radio::UnitDisk>(), mc, &metrics_);

    core::ProtocolConfig config;
    config.gossip_period = des::millis(250);
    config.hello_period = des::millis(500);
    config.neighbor_timeout = des::millis(1800);
    config.mute.expect_timeout = des::millis(600);
    config.mute.suspicion_threshold = 3;
    config.mute.suspicion_interval = des::seconds(30);

    auto add = [&](geo::Vec2 pos, byz::AdversaryKind kind) {
      auto id = static_cast<NodeId>(radios_.size());
      mobility_.push_back(std::make_unique<mobility::StaticMobility>(pos));
      radios_.push_back(
          std::make_unique<radio::Radio>(*medium_, id, *mobility_.back(), 100));
      nodes_.push_back(byz::make_adversary(kind, sim_, *radios_.back(), pki_,
                                           pki_.register_node(id), config,
                                           &metrics_));
      nodes_.back()->set_expected_targets(2);  // 3 correct nodes - self
      nodes_.back()->start();
    };
    add({0, 0}, byz::AdversaryKind::kNone);     // S = 0
    add({80, 0}, byz::AdversaryKind::kNone);    // X = 1
    add({160, 0}, byz::AdversaryKind::kNone);   // Y = 2
    add({80, 60}, byz::AdversaryKind::kMute);   // M = 3 (dist 100 to S and Y)
    metrics_.set_tracked_accepts({0, 1, 2});
  }

  core::ByzcastNode& node(NodeId id) { return *nodes_[id]; }

  des::Simulator sim_{17};
  stats::Metrics metrics_;
  crypto::Pki pki_;
  std::unique_ptr<radio::Medium> medium_;
  std::vector<std::unique_ptr<mobility::MobilityModel>> mobility_;
  std::vector<std::unique_ptr<radio::Radio>> radios_;
  std::vector<std::unique_ptr<core::ByzcastNode>> nodes_;
};

TEST_F(DiamondFixture, MuteOverlayNodeDetectedAndRoutedAround) {
  obs::MsgTraceRecorder trace;
  for (NodeId id = 0; id < 4; ++id) node(id).set_msg_trace(&trace);
  sim_.run_until(des::seconds(4));
  // The high-id mute node owned the election; X deferred to it.
  EXPECT_TRUE(node(3).in_overlay());

  // Drive traffic through; each broadcast S makes must reach Y even
  // though M swallows everything.
  for (int i = 0; i < 20; ++i) {
    sim_.schedule_at(des::seconds(4) + des::millis(500) * i, [this, i] {
      metrics_.on_broadcast({0, static_cast<std::uint32_t>(i)}, sim_.now(), 2);
      node(0).broadcast(sim::make_payload(i, 64));
    });
  }
  sim_.run_until(des::seconds(25));

  // All messages delivered (recovery covers the pre-detection window).
  EXPECT_DOUBLE_EQ(metrics_.delivery_ratio(), 1.0);

  // Y relied on M as its only overlay neighbour and caught it being mute.
  EXPECT_TRUE(node(2).trust().suspects(3));
  EXPECT_GT(node(2).trust().suspicion_events(fd::SuspicionReason::kMute), 0u);
  // Every MUTE suspicion reached the trace through ByzcastNode::suspect.
  const auto traced = std::count_if(
      trace.events().begin(), trace.events().end(),
      [](const obs::MsgEvent& e) {
        return e.kind == obs::MsgEventKind::kSuspect && e.node == 2 &&
               e.peer == 3 &&
               e.a == static_cast<std::uint64_t>(fd::SuspicionReason::kMute);
      });
  EXPECT_EQ(static_cast<std::uint64_t>(traced),
            node(2).trust().suspicion_events(fd::SuspicionReason::kMute));

  // With M distrusted, X elects itself: the overlay healed around the
  // Byzantine node (Lemma 3.9's conclusion).
  EXPECT_TRUE(node(1).in_overlay());

  // Post-healing messages ride the overlay (fast); earlier ones needed
  // the gossip-request loop (slow). Compare first vs last delivery
  // latency at Y.
  const auto& records = metrics_.records();
  auto latency_at_y = [&](std::uint32_t seq) {
    const auto& rec = records.at({0, seq});
    return des::to_seconds(rec.accepted.at(2) - rec.sent_at);
  };
  double first_latency = latency_at_y(0);
  // Any individual message can still hit a collision, so look at the best
  // of the last five: at least one must have ridden the healed overlay.
  double healed_best = latency_at_y(15);
  for (std::uint32_t seq = 16; seq < 20; ++seq) {
    healed_best = std::min(healed_best, latency_at_y(seq));
  }
  EXPECT_GT(first_latency, healed_best);
  // Overlay forwarding is sub-50ms; gossip recovery needs a gossip period
  // plus a request round-trip.
  EXPECT_LT(healed_best, 0.08);
  EXPECT_GT(first_latency, 0.15);
}

TEST_F(DiamondFixture, SuspicionReportsPropagateToNeighbors) {
  sim_.run_until(des::seconds(4));
  for (int i = 0; i < 12; ++i) {
    sim_.schedule_at(des::seconds(4) + des::millis(500) * i, [this, i] {
      node(0).broadcast(sim::make_payload(i, 64));
    });
  }
  sim_.run_until(des::seconds(20));
  ASSERT_TRUE(node(2).trust().suspects(3));
  // X heard Y's HELLO suspicion report: M is at best "unknown" for X now
  // (X has no first-hand evidence, so not untrusted).
  EXPECT_NE(node(1).trust().level(3), fd::TrustLevel::kTrusted);
}

// ---------------------------------------------------------------------------
// Interval failure-detector semantics (I-mute, §2.2): a transient mute
// interval is detected while it lasts (Interval Local Completeness) and
// the suspicion heals after correct behaviour resumes (Interval Strong
// Accuracy through the aging mechanism). Same diamond topology, with M
// honest except during [6 s, 16 s].
// ---------------------------------------------------------------------------
class IntervalFdFixture : public ::testing::Test {
 protected:
  IntervalFdFixture() : pki_(des::Rng(5)) {
    medium_ = std::make_unique<radio::Medium>(
        sim_, std::make_unique<radio::UnitDisk>(), radio::MediumConfig{},
        &metrics_);
    core::ProtocolConfig config;
    config.gossip_period = des::millis(250);
    config.hello_period = des::millis(500);
    config.neighbor_timeout = des::millis(1800);
    config.mute.expect_timeout = des::millis(600);
    config.mute.suspicion_threshold = 3;
    // Short suspicion interval so recovery is observable in-run.
    config.mute.suspicion_interval = des::seconds(6);
    config.trust.suspicion_interval = des::seconds(6);

    byz::AdversaryParams params;
    params.mute_onset = des::seconds(6);
    params.mute_duration = des::seconds(10);

    auto add = [&](geo::Vec2 pos, byz::AdversaryKind kind) {
      auto id = static_cast<NodeId>(radios_.size());
      mobility_.push_back(std::make_unique<mobility::StaticMobility>(pos));
      radios_.push_back(std::make_unique<radio::Radio>(
          *medium_, id, *mobility_.back(), 100));
      nodes_.push_back(byz::make_adversary(kind, sim_, *radios_.back(), pki_,
                                           pki_.register_node(id), config,
                                           &metrics_, params));
      nodes_.back()->set_expected_targets(2);
      nodes_.back()->start();
    };
    add({0, 0}, byz::AdversaryKind::kNone);              // S
    add({80, 0}, byz::AdversaryKind::kNone);             // X
    add({160, 0}, byz::AdversaryKind::kNone);            // Y
    add({80, 60}, byz::AdversaryKind::kTransientMute);   // M
    metrics_.set_tracked_accepts({0, 1, 2});
  }

  des::Simulator sim_{23};
  stats::Metrics metrics_;
  crypto::Pki pki_;
  std::unique_ptr<radio::Medium> medium_;
  std::vector<std::unique_ptr<mobility::MobilityModel>> mobility_;
  std::vector<std::unique_ptr<radio::Radio>> radios_;
  std::vector<std::unique_ptr<core::ByzcastNode>> nodes_;
};

TEST_F(IntervalFdFixture, TransientMuteDetectedThenForgiven) {
  // Broadcast steadily through the whole run so every phase generates
  // MUTE expectations.
  for (int i = 0; i < 56; ++i) {
    sim_.schedule_at(des::seconds(2) + des::millis(500) * i, [this, i] {
      nodes_[0]->broadcast(sim::make_payload(i, 64));
    });
  }

  // Phase 1 (pre-fault): no suspicion of the honest M.
  sim_.run_until(des::seconds(6));
  EXPECT_FALSE(nodes_[2]->trust().suspects(3));

  // Phase 2 (mute interval [6,16]): Interval Local Completeness — Y,
  // whose only honest overlay path runs through M, must suspect it while
  // it misbehaves. (Probe mid-interval: once X joins the healed overlay,
  // Y's kOne expectations are satisfied by X and M accrues no *new*
  // misses, so the suspicion lapses after its 6 s interval even while M
  // is still mute — exactly the interval semantics.)
  sim_.run_until(des::seconds(12));
  EXPECT_TRUE(nodes_[2]->trust().suspects(3));

  // Phase 3 (after recovery): Interval Strong Accuracy — with M honest
  // again, the (6 s) suspicion interval lapses without renewal and M is
  // trusted once more.
  sim_.run_until(des::seconds(32));
  EXPECT_FALSE(nodes_[2]->trust().suspects(3));
  EXPECT_EQ(nodes_[2]->trust().level(3), fd::TrustLevel::kTrusted);

  // Dissemination never broke across the whole episode.
  EXPECT_DOUBLE_EQ(metrics_.delivery_ratio(), 1.0);
}

// ---------------------------------------------------------------------------
// Scenario-harness integrations
// ---------------------------------------------------------------------------

TEST(Integration, ChainLatencyGrowsWithDistance) {
  sim::ScenarioConfig config;
  config.seed = 2;
  config.n = 12;
  config.placement = sim::PlacementKind::kChain;
  config.chain_spacing = 60;
  config.tx_range = 80;  // strict 1-hop chain
  config.num_broadcasts = 5;
  config.warmup = des::seconds(4);
  // Deep 1-hop chains are the hidden-terminal worst case: per-hop
  // recovery costs about a max_timeout, so give the tail of the chain
  // time (Thm 3.4's bound is max_timeout*(n-1)).
  config.cooldown = des::seconds(25);
  sim::Network network(config);
  sim::RunResult result = sim::run_workload(network);
  ASSERT_DOUBLE_EQ(result.metrics.delivery_ratio(), 1.0);

  // Sender is node 0 (first correct node); mean latency at the far end of
  // the chain exceeds the near end's.
  double near_sum = 0, far_sum = 0;
  int count = 0;
  for (const auto& [key, rec] : result.metrics.records()) {
    near_sum += des::to_seconds(rec.accepted.at(1) - rec.sent_at);
    far_sum += des::to_seconds(rec.accepted.at(11) - rec.sent_at);
    ++count;
  }
  ASSERT_GT(count, 0);
  EXPECT_GT(far_sum / count, near_sum / count);
}

TEST(Integration, MisBOverlayDeliversLikeCds) {
  for (auto kind : {overlay::OverlayKind::kCds, overlay::OverlayKind::kMisB}) {
    sim::ScenarioConfig config;
    config.seed = 6;
    config.n = 35;
    config.area = {500, 500};
    config.tx_range = 140;
    config.protocol_config.overlay_kind = kind;
    config.num_broadcasts = 8;
    sim::RunResult result = sim::run_scenario(config);
    EXPECT_DOUBLE_EQ(result.metrics.delivery_ratio(), 1.0)
        << "overlay kind " << static_cast<int>(kind);
  }
}

TEST(Integration, GossipOnlyModeDeliversButSlowly) {
  // Overlay disabled (OverlayKind::kNone): nobody forwards DATA, and the
  // gossip/request machinery alone must carry every message — the
  // ablation isolating the overlay's contribution (latency) from the
  // gossip layer's guarantee (delivery). The paper's Theorem 3.2 proof is
  // exactly this path.
  sim::ScenarioConfig cds;
  cds.seed = 6;
  cds.n = 30;
  cds.area = {450, 450};
  cds.tx_range = 140;
  cds.num_broadcasts = 6;
  cds.cooldown = des::seconds(25);
  sim::ScenarioConfig gossip_only = cds;
  gossip_only.protocol_config.overlay_kind = overlay::OverlayKind::kNone;

  sim::RunResult with_overlay = sim::run_scenario(cds);
  sim::RunResult without = sim::run_scenario(gossip_only);
  ASSERT_DOUBLE_EQ(with_overlay.metrics.delivery_ratio(), 1.0);
  EXPECT_DOUBLE_EQ(without.metrics.delivery_ratio(), 1.0);
  EXPECT_EQ(without.overlay_size_end, 0u);
  // The overlay is what makes dissemination fast: gossip-only pays at
  // least one gossip period per hop.
  EXPECT_GT(without.metrics.latency().mean(),
            3 * with_overlay.metrics.latency().mean());
}

TEST(Integration, MobileNetworkStillDelivers) {
  sim::ScenarioConfig config;
  config.seed = 8;
  config.n = 35;
  config.area = {400, 400};
  config.tx_range = 140;
  config.mobility = sim::MobilityKind::kRandomWaypoint;
  config.min_speed_mps = 1;
  config.max_speed_mps = 3;
  config.num_broadcasts = 10;
  config.cooldown = des::seconds(15);
  sim::RunResult result = sim::run_scenario(config);
  EXPECT_GT(result.metrics.delivery_ratio(), 0.95);
  EXPECT_EQ(result.metrics.duplicate_accepts(), 0u);
}

TEST(Integration, RandomWalkMobility) {
  sim::ScenarioConfig config;
  config.seed = 9;
  config.n = 35;
  config.area = {400, 400};
  config.tx_range = 140;
  config.mobility = sim::MobilityKind::kRandomWalk;
  config.max_speed_mps = 2;
  config.num_broadcasts = 10;
  config.cooldown = des::seconds(15);
  sim::RunResult result = sim::run_scenario(config);
  EXPECT_GT(result.metrics.delivery_ratio(), 0.95);
}

TEST(Integration, RealisticRadioWithShadowing) {
  sim::ScenarioConfig config;
  config.seed = 10;
  config.n = 35;
  config.area = {400, 400};
  config.tx_range = 140;
  config.realistic_radio = true;  // the paper's footnote-2 radio
  config.num_broadcasts = 10;
  config.cooldown = des::seconds(15);
  sim::RunResult result = sim::run_scenario(config);
  EXPECT_GT(result.metrics.delivery_ratio(), 0.97);
}

TEST(Integration, LossyChannelRecovered) {
  sim::ScenarioConfig config;
  config.seed = 12;
  config.n = 30;
  config.area = {400, 400};
  config.tx_range = 140;
  config.medium.base_loss_prob = 0.15;
  config.num_broadcasts = 8;
  config.cooldown = des::seconds(15);
  sim::RunResult result = sim::run_scenario(config);
  EXPECT_GT(result.metrics.delivery_ratio(), 0.99);
}

TEST(Integration, DeterministicAcrossRuns) {
  sim::ScenarioConfig config;
  config.seed = 99;
  config.n = 25;
  config.adversaries = {{byz::AdversaryKind::kMute, 4}};
  sim::RunResult a = sim::run_scenario(config);
  sim::RunResult b = sim::run_scenario(config);
  EXPECT_EQ(a.metrics.total_packets(), b.metrics.total_packets());
  EXPECT_EQ(a.metrics.frames_sent(), b.metrics.frames_sent());
  EXPECT_EQ(a.metrics.frames_collided(), b.metrics.frames_collided());
  EXPECT_DOUBLE_EQ(a.metrics.delivery_ratio(), b.metrics.delivery_ratio());
  EXPECT_DOUBLE_EQ(a.metrics.latency().mean(), b.metrics.latency().mean());
}

TEST(Integration, SeedsChangeOutcomes) {
  sim::ScenarioConfig config;
  config.seed = 1;
  config.n = 25;
  sim::RunResult a = sim::run_scenario(config);
  config.seed = 2;
  sim::RunResult b = sim::run_scenario(config);
  EXPECT_NE(a.metrics.frames_sent(), b.metrics.frames_sent());
}

TEST(Integration, MessageBuffersBoundedByPurge) {
  sim::ScenarioConfig config;
  config.seed = 4;
  config.n = 20;
  // Dense single-area network: dissemination completes well inside the
  // aggressive 5 s purge window (purging mid-dissemination legitimately
  // loses messages — §3.5's buffer bound assumes purge > dissemination).
  config.area = {300, 300};
  config.tx_range = 150;
  config.num_broadcasts = 40;
  config.broadcast_interval = des::millis(250);
  config.protocol_config.purge_timeout = des::seconds(5);
  config.cooldown = des::seconds(15);
  sim::Network network(config);
  sim::RunResult result = sim::run_workload(network);
  EXPECT_GT(result.metrics.delivery_ratio(), 0.99);
  // After a quiet cooldown far exceeding purge_timeout, buffers drained.
  for (NodeId id : network.correct_nodes()) {
    EXPECT_EQ(network.byzcast_node(id)->store().size(), 0u) << "node " << id;
  }
}

TEST(Integration, StabilityPurgingDrainsBuffersEarly) {
  // Same dense scenario under both purge policies: stability detection
  // must reclaim buffers long before the 60 s timeout would, without
  // costing any delivery.
  auto run = [](core::PurgePolicy policy) {
    sim::ScenarioConfig config;
    config.seed = 16;
    config.n = 20;
    config.area = {300, 300};
    config.tx_range = 150;
    config.num_broadcasts = 10;
    config.protocol_config.purge_policy = policy;
    config.protocol_config.purge_timeout = des::seconds(60);
    config.protocol_config.stability_min_age = des::seconds(2);
    config.cooldown = des::seconds(10);
    sim::Network network(config);
    sim::RunResult result = sim::run_workload(network);
    EXPECT_DOUBLE_EQ(result.metrics.delivery_ratio(), 1.0);
    std::size_t total_buffered = 0;
    for (NodeId id : network.correct_nodes()) {
      total_buffered += network.byzcast_node(id)->store().size();
    }
    return total_buffered;
  };
  std::size_t with_timeout = run(core::PurgePolicy::kTimeout);
  std::size_t with_stability = run(core::PurgePolicy::kStability);
  // Timeout policy still holds everything (run << 60 s); stability has
  // drained every fully-disseminated message.
  EXPECT_GT(with_timeout, 0u);
  EXPECT_EQ(with_stability, 0u);
}

TEST(Integration, StabilityPurgingSurvivesLyingNeighbors) {
  // Mute nodes never report stability (they send fabricated beacons with
  // an empty vector), so under kStability their presence pins neighbours'
  // buffers until the timeout cap — delivery must still be perfect.
  sim::ScenarioConfig config;
  config.seed = 18;
  config.n = 30;
  config.area = {450, 450};
  config.tx_range = 140;
  config.adversaries = {{byz::AdversaryKind::kMute, 5}};
  config.protocol_config.purge_policy = core::PurgePolicy::kStability;
  config.num_broadcasts = 8;
  sim::Network network(config);
  if (!network.correct_graph_connected()) {
    GTEST_SKIP() << "assumption violated for this seed";
  }
  sim::RunResult result = sim::run_workload(network);
  EXPECT_DOUBLE_EQ(result.metrics.delivery_ratio(), 1.0);
}

TEST(Integration, ClusteredTopologyCorridorCarriesTraffic) {
  // Two dense clusters joined by a 3-node corridor: every broadcast from
  // cluster A must cross the corridor into cluster B, and the corridor
  // nodes must end up in the overlay (they are articulation points).
  sim::ScenarioConfig config;
  config.seed = 7;
  config.n = 36;
  config.area = {700, 300};
  config.tx_range = 130;
  config.placement = sim::PlacementKind::kClustered;
  config.corridor_nodes = 3;
  config.cluster_radius = 80;
  config.num_broadcasts = 8;
  sim::Network network(config);
  ASSERT_TRUE(network.correct_graph_connected());
  sim::RunResult result = sim::run_workload(network);
  EXPECT_DOUBLE_EQ(result.metrics.delivery_ratio(), 1.0);

  // Corridor nodes are the last `corridor_nodes` ids by construction.
  std::vector<NodeId> members = network.overlay_members();
  for (NodeId corridor = 33; corridor < 36; ++corridor) {
    EXPECT_NE(std::find(members.begin(), members.end(), corridor),
              members.end())
        << "corridor node " << corridor << " not in the overlay";
  }
}

TEST(Integration, RingTopologyDelivers) {
  // A cycle: the dominating-set worst case (overlay must be ~n/3 of the
  // ring) and two disjoint directions for every message.
  sim::ScenarioConfig config;
  config.seed = 8;
  config.n = 20;
  config.area = {450, 450};
  config.placement = sim::PlacementKind::kRing;
  config.ring_radius = 180;
  config.tx_range = 80;  // reaches 1-2 ring neighbours each way
  config.num_broadcasts = 6;
  config.cooldown = des::seconds(20);
  sim::Network network(config);
  ASSERT_TRUE(network.correct_graph_connected());
  sim::RunResult result = sim::run_workload(network);
  EXPECT_DOUBLE_EQ(result.metrics.delivery_ratio(), 1.0);
  // On a cycle most nodes carry the backbone.
  EXPECT_GE(network.overlay_members().size(), config.n / 3);
}

TEST(Integration, OverlayIsHealthyAndSmallerThanNetwork) {
  sim::ScenarioConfig config;
  config.seed = 14;
  config.n = 50;
  config.area = {500, 500};
  config.tx_range = 140;
  sim::Network network(config);
  network.simulator().run_until(des::seconds(8));
  EXPECT_TRUE(network.correct_overlay_connected_and_dominating());
  std::size_t overlay = network.overlay_members().size();
  EXPECT_GT(overlay, 0u);
  EXPECT_LT(overlay, config.n);  // strictly cheaper than flooding everyone
}

}  // namespace
}  // namespace byzcast
