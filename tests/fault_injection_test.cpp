// Fault-injection subsystem tests (sim/fault.h, sim/fault_injector.h,
// Network lifecycle ops): schedule parsing, crash-recover catch-up,
// suspicion shedding after recovery, partition walls, churn, the
// stability-purge interaction with lagging neighbours, and the
// empty-schedule trace-identity guarantee.
#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "core/byzcast_node.h"
#include "mobility/static_mobility.h"
#include "radio/medium.h"
#include "sim/fault_injector.h"
#include "sim/runner.h"

namespace byzcast {
namespace {

// ---------------------------------------------------------------------------
// FaultSchedule::parse
// ---------------------------------------------------------------------------

TEST(FaultSchedule, ParsesEveryEventKind) {
  sim::FaultSchedule schedule = sim::FaultSchedule::parse(R"(
# comment, then a blank line

t=10 crash node=3
t=25.5 recover node=3
t=30 radio-off node=7
t=32 radio-on node=7
t=40 partition x=250
t=50 heal
t=55 join pos=120,340
t=60 leave node=2
)");
  ASSERT_EQ(schedule.events.size(), 8u);
  EXPECT_EQ(schedule.events[0].kind, sim::FaultKind::kCrashStop);
  EXPECT_EQ(schedule.events[0].node, 3u);
  EXPECT_EQ(schedule.events[0].at, des::seconds(10));
  EXPECT_EQ(schedule.events[1].kind, sim::FaultKind::kCrashRecover);
  EXPECT_EQ(schedule.events[1].at, des::millis(25500));
  EXPECT_EQ(schedule.events[2].kind, sim::FaultKind::kRadioOutage);
  EXPECT_EQ(schedule.events[3].kind, sim::FaultKind::kRadioRestore);
  EXPECT_EQ(schedule.events[4].kind, sim::FaultKind::kPartition);
  EXPECT_DOUBLE_EQ(schedule.events[4].wall_x, 250.0);
  EXPECT_EQ(schedule.events[5].kind, sim::FaultKind::kHeal);
  EXPECT_EQ(schedule.events[6].kind, sim::FaultKind::kJoin);
  EXPECT_DOUBLE_EQ(schedule.events[6].position.x, 120.0);
  EXPECT_DOUBLE_EQ(schedule.events[6].position.y, 340.0);
  EXPECT_EQ(schedule.events[7].kind, sim::FaultKind::kLeave);
  EXPECT_EQ(schedule.end_time(), des::seconds(60));
  EXPECT_FALSE(schedule.empty());
}

TEST(FaultSchedule, RejectsMalformedLines) {
  EXPECT_THROW(sim::FaultSchedule::parse("t=10 explode node=1"),
               std::invalid_argument);
  EXPECT_THROW(sim::FaultSchedule::parse("crash node=1"),  // missing t=
               std::invalid_argument);
  EXPECT_THROW(sim::FaultSchedule::parse("t=10 crash"),  // missing node=
               std::invalid_argument);
  EXPECT_THROW(sim::FaultSchedule::parse("t=ten crash node=1"),
               std::invalid_argument);
  EXPECT_THROW(sim::FaultSchedule::parse("t=10 join pos=abc"),
               std::invalid_argument);
  // Numbers must be whole, finite and in range; each error names its
  // line. A NaN time used to stretch the run until a timeout, a negative
  // one went through an out-of-range cast, and "5abc" ran as 5.
  for (const char* line :
       {"t=nan crash node=1", "t=inf crash node=1", "t=-inf crash node=1",
        "t=-1 crash node=1", "t=5abc crash node=1", "t=1e300 crash node=1",
        "t=5 partition x=nan", "t=5 partition x=inf", "t=5 partition x=9m",
        "t=5 join pos=inf,0", "t=5 join pos=0,nan", "t=5 join pos=1,2,3",
        "t=5 join pos=1e999,0", "t=5 crash node=4294967295",
        "t=5 crash node=99999999999", "t=5 crash node=-1",
        "t=5 crash node=3x"}) {
    try {
      sim::FaultSchedule::parse(line);
      ADD_FAILURE() << "accepted: " << line;
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(line), std::string::npos)
          << e.what();
    }
  }
  EXPECT_EQ(sim::FaultSchedule::parse("t=5 crash node=4294967294")
                .events.at(0)
                .node,
            4294967294u);
  EXPECT_TRUE(sim::FaultSchedule::parse("").empty());
  EXPECT_TRUE(sim::FaultSchedule::parse("  # only a comment\n").empty());
}

// ---------------------------------------------------------------------------
// Availability metrics bookkeeping
// ---------------------------------------------------------------------------

TEST(AvailabilityMetrics, DowntimeAccountingAndCrashForgiveness) {
  stats::Metrics m;
  m.on_node_down(1, des::seconds(10));
  m.on_node_down(1, des::seconds(11));  // already down: idempotent
  m.on_node_up(1, des::seconds(20));
  EXPECT_EQ(m.downtime_events(), 1u);
  EXPECT_EQ(m.recoveries_returned(), 1u);
  EXPECT_DOUBLE_EQ(m.node_seconds_down(des::seconds(30)), 10.0);
  m.on_node_down(2, des::seconds(25));  // still open at t=30
  EXPECT_DOUBLE_EQ(m.node_seconds_down(des::seconds(30)), 15.0);
  EXPECT_DOUBLE_EQ(m.node_seconds_available(des::seconds(30), 3), 75.0);

  // A crash survivor re-accepting after its wipe is not a validity
  // violation; a never-crashed node double-accepting still is.
  m.on_broadcast({0, 0}, 0, 3);
  m.on_accept({0, 0}, 1, des::seconds(1));
  m.on_accept({0, 0}, 1, des::seconds(21));  // node 1 recovered: forgiven
  EXPECT_EQ(m.duplicate_accepts(), 0u);
  m.on_accept({0, 0}, 3, des::seconds(1));
  m.on_accept({0, 0}, 3, des::seconds(2));
  EXPECT_EQ(m.duplicate_accepts(), 1u);
}

// ---------------------------------------------------------------------------
// Scenario-level: crash-recover catch-up through the injector
// ---------------------------------------------------------------------------

sim::ScenarioConfig grid_scenario() {
  sim::ScenarioConfig config;
  config.seed = 7;
  config.n = 9;
  config.area = {240, 240};
  config.tx_range = 120;
  config.placement = sim::PlacementKind::kGrid;
  config.num_broadcasts = 8;
  config.broadcast_interval = des::millis(500);
  config.payload_bytes = 64;
  config.warmup = des::seconds(6);
  config.cooldown = des::seconds(12);
  return config;
}

TEST(FaultInjection, CrashedNodeCatchesUpAfterRecovery) {
  // Node 4 crashes just as the workload starts and recovers after the
  // last broadcast: every message is disseminated while it is down, so
  // everything it ends up holding arrived through gossip/anti-entropy.
  sim::ScenarioConfig config = grid_scenario();
  const NodeId crashed = 4;
  config.fault_schedule.events.push_back(
      {des::millis(6100), sim::FaultKind::kCrashStop, crashed, 0, {}});
  config.fault_schedule.events.push_back(
      {des::seconds(10), sim::FaultKind::kCrashRecover, crashed, 0, {}});

  sim::Network network(config);
  sim::RunResult result = sim::run_workload(network);
  const stats::Metrics& m = result.metrics;

  EXPECT_EQ(m.downtime_events(), 1u);
  EXPECT_EQ(m.recoveries_returned(), 1u);
  ASSERT_EQ(m.recoveries_completed(), 1u)
      << "recovered node never caught up with the live nodes";
  // Lemma 3.3 bounds each recovery hop by max_timeout(); a whole-backlog
  // catch-up over a few hops must land well inside a small multiple.
  double bound = 20.0 * des::to_seconds(config.protocol_config.max_timeout());
  EXPECT_LE(m.catchup_latency().max(), bound);

  // The recovered node holds every message broadcast during its downtime.
  const core::ByzcastNode* node = network.byzcast_node(crashed);
  ASSERT_NE(node, nullptr);
  ASSERT_EQ(m.records().size(), config.num_broadcasts);
  for (const auto& [key, rec] : m.records()) {
    EXPECT_TRUE(node->store().accepted({key.origin, key.seq}))
        << "missing (" << key.origin << "," << key.seq << ")";
  }
  EXPECT_EQ(m.duplicate_accepts(), 0u);
  EXPECT_LT(result.availability, 1.0);
  EXPECT_GT(result.availability, 0.9);  // one node, ~4 s of ~22 s
}

TEST(FaultInjection, RecoveredNodeShedsSuspicionAndRejoinsOverlay) {
  sim::ScenarioConfig config = grid_scenario();
  config.num_broadcasts = 4;
  config.protocol_config.trust.suspicion_interval = des::seconds(8);
  const NodeId crashed = 4;
  config.fault_schedule.events.push_back(
      {des::seconds(7), sim::FaultKind::kCrashStop, crashed, 0, {}});
  config.fault_schedule.events.push_back(
      {des::seconds(12), sim::FaultKind::kCrashRecover, crashed, 0, {}});

  sim::Network network(config);
  des::Simulator& sim = network.simulator();
  sim.run_until(des::seconds(6));

  // The crash plus detection: every live node MUTE-suspects the silent
  // node (what MuteFd would conclude, injected for determinism).
  sim.schedule_at(des::millis(7500), [&network, crashed] {
    for (NodeId id : network.correct_nodes()) {
      if (id == crashed) continue;
      network.byzcast_node(id)->trust().suspect(crashed,
                                                fd::SuspicionReason::kMute);
    }
  });

  sim.run_until(des::seconds(11));
  std::size_t suspecting = 0;
  for (NodeId id : network.correct_nodes()) {
    if (id == crashed) continue;
    if (network.byzcast_node(id)->trust().suspects(crashed)) ++suspecting;
  }
  EXPECT_GT(suspecting, 0u) << "crash was never suspected";

  // Past recovery + suspicion_interval: the aging mechanism must have
  // shed every suspicion, and the node must be a full participant again.
  sim.run_until(des::seconds(28));
  for (NodeId id : network.correct_nodes()) {
    if (id == crashed) continue;
    EXPECT_FALSE(network.byzcast_node(id)->trust().suspects(crashed))
        << "node " << id << " still suspects the recovered node";
  }
  EXPECT_TRUE(network.byzcast_node(crashed)->running());
  EXPECT_TRUE(network.node_running(crashed));
  EXPECT_TRUE(network.correct_overlay_connected_and_dominating());
}

TEST(FaultInjection, ScriptNamingANodeOutsideTheFleetIsRejectedUpFront) {
  // grid_scenario() has nodes 0..8. Each node-targeting kind is refused
  // when the Network arms its injector, before anything runs, with an
  // error naming the line's time, kind and node.
  for (const char* line :
       {"t=1 crash node=9", "t=1 recover node=9", "t=1 radio-off node=9",
        "t=1 radio-on node=99", "t=12.345678 leave node=9"}) {
    sim::ScenarioConfig config = grid_scenario();
    config.fault_schedule = sim::FaultSchedule::parse(line);
    try {
      sim::Network network(config);
      ADD_FAILURE() << "accepted: " << line;
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(line), std::string::npos)
          << e.what();
    }
  }
  // Every in-fleet id passes.
  sim::ScenarioConfig config = grid_scenario();
  config.fault_schedule = sim::FaultSchedule::parse("t=1 radio-off node=8");
  EXPECT_NO_THROW(sim::Network network(config));
}

TEST(FaultInjection, JoinUnderAProtocolWithoutChurnIsRejectedUpFront) {
  // Only byzcast models churn. Under another protocol a join line is
  // refused when the Network arms its injector, naming the line, instead
  // of failing once the run reaches it.
  for (sim::ProtocolKind protocol :
       {sim::ProtocolKind::kFlooding, sim::ProtocolKind::kMultiOverlay}) {
    sim::ScenarioConfig config = grid_scenario();
    config.protocol = protocol;
    config.fault_schedule =
        sim::FaultSchedule::parse("t=1 crash node=2\nt=3 join pos=100,100");
    try {
      sim::Network network(config);
      ADD_FAILURE() << "accepted under "
                    << sim::protocol_kind_name(protocol);
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("t=3 join pos=100,100"),
                std::string::npos)
          << e.what();
    }
  }
}

TEST(FaultInjection, JoinGrowsTheFleetForLaterLinesOnly) {
  // Walked in execution order (time, then line): a join counts for the
  // events that fire after it, whatever line they sit on.
  for (const char* script :
       {"t=1 join pos=10,10\nt=2 crash node=9",
        "t=2 crash node=9\nt=1 join pos=10,10",
        "t=1 join pos=10,10\nt=1 leave node=9"}) {
    sim::ScenarioConfig config = grid_scenario();
    config.fault_schedule = sim::FaultSchedule::parse(script);
    EXPECT_NO_THROW(sim::Network network(config)) << script;
  }
  for (const char* script :
       {"t=2 crash node=9\nt=3 join pos=10,10",
        "t=1 leave node=9\nt=1 join pos=10,10",
        "t=1 join pos=10,10\nt=2 crash node=10"}) {
    sim::ScenarioConfig config = grid_scenario();
    config.fault_schedule = sim::FaultSchedule::parse(script);
    EXPECT_THROW(sim::Network network(config), std::invalid_argument)
        << script;
  }

  // The join-then-crash script runs end to end and crashes the joiner.
  sim::ScenarioConfig config = grid_scenario();
  config.fault_schedule =
      sim::FaultSchedule::parse("t=1 join pos=120,120\nt=2 crash node=9");
  sim::Network network(config);
  network.simulator().run_until(des::seconds(3));
  ASSERT_EQ(network.node_count(), 10u);
  EXPECT_FALSE(network.node_running(9));
}

TEST(FaultInjection, LifecycleCallsRejectUnknownNodes) {
  sim::Network network(grid_scenario());
  EXPECT_THROW(network.crash_node(9), std::out_of_range);
  EXPECT_THROW(network.recover_node(9), std::out_of_range);
  EXPECT_THROW(network.set_radio_attached(9, false), std::out_of_range);
  EXPECT_THROW(network.set_radio_attached(9, true), std::out_of_range);
  EXPECT_THROW(network.leave_node(9), std::out_of_range);
  EXPECT_FALSE(network.node_running(9));
}

TEST(FaultInjection, EmptyScheduleIsTraceIdenticalToNoInjector) {
  sim::ScenarioConfig config = grid_scenario();
  config.num_broadcasts = 5;

  sim::RunResult plain = sim::run_scenario(config);  // no injector at all

  sim::Network network(config);
  sim::FaultInjector idle(network, sim::FaultSchedule{});  // armed, empty
  sim::RunResult with_idle_injector = sim::run_workload(network);

  std::string a = stats::snapshot(plain.metrics);
  std::string b = stats::snapshot(with_idle_injector.metrics);
  EXPECT_FALSE(a.empty());
  EXPECT_NE(a.find("broadcast"), std::string::npos);
  EXPECT_EQ(a, b);
  EXPECT_DOUBLE_EQ(plain.availability, 1.0);
}

// ---------------------------------------------------------------------------
// Churn: join and leave
// ---------------------------------------------------------------------------

TEST(FaultInjection, JoinedNodeParticipatesAndLeaverGoesSilent) {
  sim::ScenarioConfig config = grid_scenario();
  config.num_broadcasts = 0;  // driven manually below
  sim::Network network(config);
  des::Simulator& sim = network.simulator();
  sim.run_until(des::seconds(6));

  // Two broadcasts before the join: the fresh node must pull them via
  // anti-entropy like any late joiner.
  network.broadcast_from(0, sim::make_payload(0, 64));
  network.broadcast_from(0, sim::make_payload(1, 64));
  sim.run_until(des::seconds(8));

  NodeId fresh = network.join_node({120, 120});
  EXPECT_EQ(fresh, 9u);
  EXPECT_TRUE(network.node_running(fresh));
  ASSERT_NE(network.byzcast_node(fresh), nullptr);

  network.leave_node(3);
  EXPECT_FALSE(network.node_running(3));
  std::size_t accepted_before_leave =
      network.byzcast_node(3)->store().accepted_count();

  // A broadcast after the churn: the joiner gets it, the leaver does not.
  sim.run_until(des::seconds(10));
  network.broadcast_from(0, sim::make_payload(2, 64));
  sim.run_until(des::seconds(25));

  const core::ByzcastNode* joiner = network.byzcast_node(fresh);
  EXPECT_TRUE(joiner->store().accepted({0, 2})) << "missed the live bcast";
  EXPECT_TRUE(joiner->store().accepted({0, 0})) << "no catch-up of backlog";
  EXPECT_TRUE(joiner->store().accepted({0, 1}));
  EXPECT_EQ(network.byzcast_node(3)->store().accepted_count(),
            accepted_before_leave);

  // Departed for good: recover_node refuses, downtime keeps accruing.
  network.recover_node(3);
  EXPECT_FALSE(network.node_running(3));
  EXPECT_GT(network.metrics().node_seconds_down(sim.now()), 0.0);
  // The joiner's accepts must not corrupt delivery metrics (it is not a
  // tracked target).
  EXPECT_EQ(network.metrics().duplicate_accepts(), 0u);
  for (const auto& [key, rec] : network.metrics().records()) {
    EXPECT_EQ(rec.accepted.count(fresh), 0u);
  }
}

// ---------------------------------------------------------------------------
// Manual fixture: partition wall, radio outage, stability purge
// ---------------------------------------------------------------------------

class FaultFixture : public ::testing::Test {
 protected:
  FaultFixture() : pki_(des::Rng(29)) {
    medium_ = std::make_unique<radio::Medium>(
        sim_, std::make_unique<radio::UnitDisk>(), radio::MediumConfig{},
        &metrics_);
    config_.gossip_period = des::millis(250);
    config_.hello_period = des::millis(500);
  }

  core::ByzcastNode& add_node(geo::Vec2 position) {
    auto id = static_cast<NodeId>(radios_.size());
    mobility_.push_back(
        std::make_unique<mobility::StaticMobility>(position));
    radios_.push_back(
        std::make_unique<radio::Radio>(*medium_, id, *mobility_.back(), 100));
    nodes_.push_back(std::make_unique<core::ByzcastNode>(
        sim_, *radios_.back(), pki_, pki_.register_node(id), config_,
        &metrics_));
    nodes_.back()->start();
    return *nodes_.back();
  }

  des::Simulator sim_{31};
  stats::Metrics metrics_;
  crypto::Pki pki_;
  core::ProtocolConfig config_;
  std::unique_ptr<radio::Medium> medium_;
  std::vector<std::unique_ptr<mobility::MobilityModel>> mobility_;
  std::vector<std::unique_ptr<radio::Radio>> radios_;
  std::vector<std::unique_ptr<core::ByzcastNode>> nodes_;
};

TEST_F(FaultFixture, PartitionWallBlocksUntilHealed) {
  core::ByzcastNode& alice = add_node({0, 0});
  core::ByzcastNode& bob = add_node({60, 0});
  int bob_accepts = 0;
  bob.set_accept_handler([&](auto&&...) { ++bob_accepts; });

  sim_.run_until(des::seconds(2));
  medium_->set_partition_wall(30);
  EXPECT_TRUE(medium_->partitioned());
  sim_.schedule_at(des::seconds(3), [&] {
    alice.broadcast(sim::make_payload(0, 32));
  });
  sim_.run_until(des::seconds(8));
  EXPECT_EQ(bob_accepts, 0);  // the wall is airtight

  medium_->clear_partition_wall();
  EXPECT_FALSE(medium_->partitioned());
  // Lazycast repeats are exhausted; anti-entropy carries it across.
  sim_.run_until(des::seconds(25));
  EXPECT_EQ(bob_accepts, 1);
}

TEST_F(FaultFixture, DetachedRadioNeitherSendsNorReceives) {
  core::ByzcastNode& alice = add_node({0, 0});
  core::ByzcastNode& bob = add_node({60, 0});
  int bob_accepts = 0;
  bob.set_accept_handler([&](auto&&...) { ++bob_accepts; });

  sim_.run_until(des::seconds(2));
  EXPECT_TRUE(radios_[1]->attached());
  radios_[1]->detach();
  EXPECT_FALSE(radios_[1]->attached());
  sim_.schedule_at(des::seconds(3), [&] {
    alice.broadcast(sim::make_payload(0, 32));
  });
  sim_.run_until(des::seconds(8));
  EXPECT_EQ(bob_accepts, 0);

  radios_[1]->attach();
  sim_.run_until(des::seconds(25));
  EXPECT_EQ(bob_accepts, 1);  // caught up after the outage
}

TEST_F(FaultFixture, StabilityPurgeWaitsForLaggingNeighbour) {
  // kStability must not let the holder drop messages a lagging neighbour
  // (here: radio-detached through the broadcasts) has not yet stabilized.
  config_.purge_policy = core::PurgePolicy::kStability;
  config_.stability_min_age = des::seconds(2);
  config_.purge_timeout = des::seconds(120);  // hard bound out of the way
  config_.neighbor_timeout = des::seconds(60);  // keep the laggard listed
  config_.trust.suspicion_interval = des::seconds(4);  // shed fast
  core::ByzcastNode& alice = add_node({0, 0});
  add_node({60, 0});
  core::ByzcastNode& carol = add_node({30, 50});

  sim_.run_until(des::seconds(2));
  radios_[2]->detach();
  for (int i = 0; i < 3; ++i) {
    sim_.schedule_at(des::seconds(3) + des::seconds(1) * i, [&, i] {
      alice.broadcast(sim::make_payload(i, 32));
    });
  }

  // Long past stability_min_age: bob has stabilized all three, but
  // carol's advertised prefix is still 0 — alice must keep them.
  sim_.run_until(des::seconds(10));
  for (std::uint32_t seq = 0; seq < 3; ++seq) {
    EXPECT_TRUE(alice.store().has({alice.id(), seq}))
        << "purged seq " << seq << " a lagging neighbour still lacks";
  }

  radios_[2]->attach();
  sim_.run_until(des::seconds(40));
  // Carol caught up, advertised the full prefix, and only then did the
  // stability purge reclaim the buffers.
  EXPECT_EQ(carol.store().stability_prefix(alice.id()), 3u);
  for (std::uint32_t seq = 0; seq < 3; ++seq) {
    EXPECT_FALSE(alice.store().has({alice.id(), seq}))
        << "stability purge never fired for seq " << seq;
  }
}

TEST(StabilityPurgeScenario, DeliversUnderLossyMedium) {
  // Scenario-level kStability under base_loss_prob > 0: retransmissions
  // mean some nodes stabilize late, and the prefix must trail them
  // without hurting delivery.
  sim::ScenarioConfig config;
  config.seed = 11;
  config.n = 16;
  config.area = {320, 320};
  config.tx_range = 130;
  config.medium.base_loss_prob = 0.2;
  config.protocol_config.purge_policy = core::PurgePolicy::kStability;
  config.protocol_config.stability_min_age = des::seconds(2);
  config.num_broadcasts = 10;
  config.payload_bytes = 64;

  sim::RunResult result = sim::run_scenario(config);
  EXPECT_GE(result.metrics.delivery_ratio(), 0.95);
  EXPECT_EQ(result.metrics.duplicate_accepts(), 0u);
}

}  // namespace
}  // namespace byzcast
