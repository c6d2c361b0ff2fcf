// Behavioural tests for each Byzantine adversary class: the attack must
// (a) fail to break validity/dissemination, and (b) where the paper says
// so, get the attacker detected by the right failure detector.
#include <gtest/gtest.h>

#include "mobility/static_mobility.h"
#include "radio/medium.h"
#include "sim/runner.h"

namespace byzcast {
namespace {

sim::ScenarioConfig base_config(std::uint64_t seed) {
  sim::ScenarioConfig config;
  config.seed = seed;
  config.n = 30;
  config.area = {400, 400};
  config.tx_range = 140;
  config.num_broadcasts = 8;
  config.warmup = des::seconds(4);
  config.cooldown = des::seconds(8);
  return config;
}

/// Sum of suspicion events of one reason across all correct nodes.
std::uint64_t total_suspicions(sim::Network& network,
                               fd::SuspicionReason reason) {
  std::uint64_t total = 0;
  for (NodeId node : network.correct_nodes()) {
    total += network.byzcast_node(node)->trust().suspicion_events(reason);
  }
  return total;
}

TEST(Adversary, KindNamesRoundTrip) {
  using byz::AdversaryKind;
  for (AdversaryKind kind :
       {AdversaryKind::kNone, AdversaryKind::kMute, AdversaryKind::kVerbose,
        AdversaryKind::kForger, AdversaryKind::kLiar,
        AdversaryKind::kFakeGossiper, AdversaryKind::kSelectiveForwarder,
        AdversaryKind::kDelayedMute, AdversaryKind::kTransientMute,
        AdversaryKind::kHelloLiar, AdversaryKind::kReplayer}) {
    EXPECT_EQ(byz::adversary_kind_from_name(byz::adversary_kind_name(kind)),
              kind);
  }
  EXPECT_THROW(byz::adversary_kind_from_name("nonsense"),
               std::invalid_argument);
}

TEST(Adversary, ForgerNeverGetsAMessageAccepted) {
  sim::ScenarioConfig config = base_config(21);
  config.adversaries = {{byz::AdversaryKind::kForger, 3}};
  sim::Network network(config);
  sim::RunResult result = sim::run_workload(network);

  // Validity: zero accepts for keys that were never broadcast by a
  // correct node, zero duplicates, and full delivery of the real traffic.
  EXPECT_EQ(result.metrics.unknown_accepts(), 0u);
  EXPECT_EQ(result.metrics.duplicate_accepts(), 0u);
  EXPECT_DOUBLE_EQ(result.metrics.delivery_ratio(), 1.0);
  // The forged junk is detected as bad signatures.
  EXPECT_GT(total_suspicions(network, fd::SuspicionReason::kBadSignature), 0u);
}

TEST(Adversary, LiarTamperingDetectedAndMessagesStillDeliver) {
  sim::ScenarioConfig config = base_config(22);
  config.adversaries = {{byz::AdversaryKind::kLiar, 3}};
  sim::Network network(config);
  sim::RunResult result = sim::run_workload(network);

  EXPECT_DOUBLE_EQ(result.metrics.delivery_ratio(), 1.0);
  EXPECT_EQ(result.metrics.unknown_accepts(), 0u);
  EXPECT_GT(total_suspicions(network, fd::SuspicionReason::kBadSignature), 0u);
  // At least one correct node distrusts at least one liar.
  bool liar_suspected = false;
  for (NodeId c : network.correct_nodes()) {
    for (NodeId b : network.byzantine_nodes()) {
      if (network.byzcast_node(c)->trust().suspects(b)) liar_suspected = true;
    }
  }
  EXPECT_TRUE(liar_suspected);
}

TEST(Adversary, MuteNodesCannotStopDissemination) {
  sim::ScenarioConfig config = base_config(23);
  config.adversaries = {{byz::AdversaryKind::kMute, 8}};
  sim::Network network(config);
  // The paper's standing assumption: correct nodes form a connected
  // graph. (This seed satisfies it; without it no protocol could win.)
  ASSERT_TRUE(network.correct_graph_connected());
  sim::RunResult result = sim::run_workload(network);
  EXPECT_DOUBLE_EQ(result.metrics.delivery_ratio(), 1.0);
}

TEST(Adversary, VerboseSpammerGetsSuspected) {
  sim::ScenarioConfig config = base_config(24);
  config.adversaries = {{byz::AdversaryKind::kVerbose, 2}};
  sim::Network network(config);
  sim::RunResult result = sim::run_workload(network);

  EXPECT_GT(result.metrics.delivery_ratio(), 0.99);
  EXPECT_GT(total_suspicions(network, fd::SuspicionReason::kVerbose), 0u);
  bool spammer_suspected = false;
  for (NodeId c : network.correct_nodes()) {
    for (NodeId b : network.byzantine_nodes()) {
      if (network.byzcast_node(c)->verbose().suspected(b)) {
        spammer_suspected = true;
      }
    }
  }
  EXPECT_TRUE(spammer_suspected);
}

TEST(Adversary, SelectiveForwarderToleratedByRecovery) {
  sim::ScenarioConfig config = base_config(25);
  config.adversaries = {{byz::AdversaryKind::kSelectiveForwarder, 6}};
  sim::Network network(config);
  ASSERT_TRUE(network.correct_graph_connected());
  sim::RunResult result = sim::run_workload(network);
  EXPECT_DOUBLE_EQ(result.metrics.delivery_ratio(), 1.0);
}

TEST(Adversary, FakeGossiperToleratedAndEventuallySuspected) {
  sim::ScenarioConfig config = base_config(26);
  config.adversaries = {{byz::AdversaryKind::kFakeGossiper, 3}};
  sim::Network network(config);
  ASSERT_TRUE(network.correct_graph_connected());
  sim::RunResult result = sim::run_workload(network);
  EXPECT_DOUBLE_EQ(result.metrics.delivery_ratio(), 1.0);
}

TEST(Adversary, MixedAttackStillFullDelivery) {
  sim::ScenarioConfig config = base_config(27);
  config.n = 40;
  config.adversaries = {{byz::AdversaryKind::kMute, 4},
                        {byz::AdversaryKind::kLiar, 2},
                        {byz::AdversaryKind::kForger, 2},
                        {byz::AdversaryKind::kFakeGossiper, 2}};
  sim::Network network(config);
  ASSERT_TRUE(network.correct_graph_connected());
  sim::RunResult result = sim::run_workload(network);
  EXPECT_DOUBLE_EQ(result.metrics.delivery_ratio(), 1.0);
  EXPECT_EQ(result.metrics.unknown_accepts(), 0u);
  EXPECT_EQ(result.metrics.duplicate_accepts(), 0u);
}

TEST(Adversary, DelayedMuteHonestBeforeOnset) {
  sim::ScenarioConfig config = base_config(31);
  config.adversaries = {{byz::AdversaryKind::kDelayedMute, 6}};
  config.adversary_params.mute_onset = des::seconds(1000);  // never fires
  sim::Network network(config);
  ASSERT_TRUE(network.correct_graph_connected());
  sim::RunResult result = sim::run_workload(network);
  EXPECT_DOUBLE_EQ(result.metrics.delivery_ratio(), 1.0);
  // No fault happened, so nothing should have been suspected as mute.
  EXPECT_EQ(total_suspicions(network, fd::SuspicionReason::kMute), 0u);
}

TEST(Adversary, DelayedMuteTurnsAndDisseminationSurvives) {
  sim::ScenarioConfig config = base_config(32);
  config.adversaries = {{byz::AdversaryKind::kDelayedMute, 6}};
  config.adversary_params.mute_onset = des::seconds(6);  // mid-workload
  sim::Network network(config);
  ASSERT_TRUE(network.correct_graph_connected());
  sim::RunResult result = sim::run_workload(network);
  EXPECT_DOUBLE_EQ(result.metrics.delivery_ratio(), 1.0);
}

TEST(Adversary, TransientMuteRelaysOnlyOutsideItsWindow) {
  // S - M - Y on a line: the transient-mute M, mute during [6 s, 16 s),
  // is Y's only way to hear S, so Y gets S's broadcasts exactly while M
  // is honest.
  des::Simulator sim(41);
  stats::Metrics metrics;
  crypto::Pki pki(des::Rng(43));
  radio::Medium medium(sim, std::make_unique<radio::UnitDisk>(),
                       radio::MediumConfig{}, &metrics);
  byz::AdversaryParams params;
  params.mute_onset = des::seconds(6);
  params.mute_duration = des::seconds(10);
  std::vector<std::unique_ptr<mobility::MobilityModel>> mobility;
  std::vector<std::unique_ptr<radio::Radio>> radios;
  std::vector<std::unique_ptr<core::ByzcastNode>> nodes;
  for (auto [x, kind] : {std::pair{0.0, byz::AdversaryKind::kNone},
                         std::pair{80.0, byz::AdversaryKind::kTransientMute},
                         std::pair{160.0, byz::AdversaryKind::kNone}}) {
    auto id = static_cast<NodeId>(radios.size());
    mobility.push_back(
        std::make_unique<mobility::StaticMobility>(geo::Vec2{x, 0}));
    radios.push_back(
        std::make_unique<radio::Radio>(medium, id, *mobility.back(), 100));
    nodes.push_back(byz::make_adversary(kind, sim, *radios.back(), pki,
                                        pki.register_node(id), {}, &metrics,
                                        params));
    nodes.back()->start();
  }
  const core::ByzcastNode& y = *nodes[2];

  sim.run_until(des::seconds(4));
  nodes[0]->broadcast(sim::make_payload(0, 64));  // before the window
  sim.run_until(des::seconds(6));
  EXPECT_TRUE(y.store().accepted({0, 0}));

  sim.run_until(des::seconds(8));
  nodes[0]->broadcast(sim::make_payload(1, 64));  // inside the window
  sim.run_until(des::seconds(16) - 1);
  EXPECT_FALSE(y.store().accepted({0, 1}));

  sim.run_until(des::seconds(20));
  nodes[0]->broadcast(sim::make_payload(2, 64));  // after it
  sim.run_until(des::seconds(24));
  EXPECT_TRUE(y.store().accepted({0, 2}));
}

TEST(Adversary, HelloLiarCannotPartitionOrFrameVictim) {
  sim::ScenarioConfig config = base_config(33);
  config.adversaries = {{byz::AdversaryKind::kHelloLiar, 3}};
  config.adversary_params.victim = 0;
  sim::Network network(config);
  ASSERT_TRUE(network.correct_graph_connected());
  sim::RunResult result = sim::run_workload(network);
  // Fabricated HELLOs may bloat the overlay but must not break delivery.
  EXPECT_DOUBLE_EQ(result.metrics.delivery_ratio(), 1.0);
  // The framed victim ends at worst "unknown" at other correct nodes —
  // never untrusted (nobody has first-hand evidence against it).
  for (NodeId c : network.correct_nodes()) {
    if (c == 0) continue;
    EXPECT_NE(network.byzcast_node(c)->trust().level(0),
              fd::TrustLevel::kUntrusted)
        << "correct node " << c << " wrongly distrusts the framed victim";
  }
}

TEST(Adversary, ReplayerNeverCausesDuplicateAccepts) {
  sim::ScenarioConfig config = base_config(34);
  config.adversaries = {{byz::AdversaryKind::kReplayer, 3}};
  config.adversary_params.action_period = des::millis(100);
  // Aggressive purge: replayed messages arrive after their buffer entries
  // are long gone, attacking the at-most-once bookkeeping directly.
  config.protocol_config.purge_timeout = des::seconds(3);
  config.cooldown = des::seconds(15);
  sim::Network network(config);
  ASSERT_TRUE(network.correct_graph_connected());
  sim::RunResult result = sim::run_workload(network);
  EXPECT_DOUBLE_EQ(result.metrics.delivery_ratio(), 1.0);
  EXPECT_EQ(result.metrics.duplicate_accepts(), 0u);
  EXPECT_EQ(result.metrics.unknown_accepts(), 0u);
}

TEST(Adversary, BroadcastFromByzantineNodeRejectedByHarness) {
  sim::ScenarioConfig config = base_config(28);
  config.adversaries = {{byz::AdversaryKind::kMute, 1}};
  sim::Network network(config);
  ASSERT_FALSE(network.byzantine_nodes().empty());
  EXPECT_THROW(network.broadcast_from(network.byzantine_nodes()[0], {1}),
               std::invalid_argument);
}

}  // namespace
}  // namespace byzcast
