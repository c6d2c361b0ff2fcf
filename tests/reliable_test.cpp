// Tests for the reliable-FIFO + flow-control layer (paper footnote 4).
#include <gtest/gtest.h>

#include <memory>

#include "mobility/static_mobility.h"
#include "radio/medium.h"
#include "reliable/reliable_broadcast.h"
#include "sim/runner.h"

namespace byzcast::reliable {
namespace {

// ---------------------------------------------------------------------------
// FifoReceiver over a tiny real network (accept stream comes from the
// protocol itself).
// ---------------------------------------------------------------------------

class ReliableFixture : public ::testing::Test {
 protected:
  ReliableFixture() : pki_(des::Rng(3)) {
    radio::MediumConfig mc;
    mc.tx_jitter_max = 0;
    medium_ = std::make_unique<radio::Medium>(
        sim_, std::make_unique<radio::UnitDisk>(), mc, nullptr);
  }

  core::ByzcastNode& add_node(geo::Vec2 pos) {
    auto id = static_cast<NodeId>(radios_.size());
    mobility_.push_back(std::make_unique<mobility::StaticMobility>(pos));
    radios_.push_back(
        std::make_unique<radio::Radio>(*medium_, id, *mobility_.back(), 100));
    core::ProtocolConfig config;
    config.gossip_period = des::millis(100);
    config.hello_period = des::millis(200);
    nodes_.push_back(std::make_unique<core::ByzcastNode>(
        sim_, *radios_.back(), pki_, pki_.register_node(id), config));
    nodes_.back()->start();
    return *nodes_.back();
  }

  des::Simulator sim_{11};
  crypto::Pki pki_;
  std::unique_ptr<radio::Medium> medium_;
  std::vector<std::unique_ptr<mobility::MobilityModel>> mobility_;
  std::vector<std::unique_ptr<radio::Radio>> radios_;
  std::vector<std::unique_ptr<core::ByzcastNode>> nodes_;
};

TEST_F(ReliableFixture, FifoDeliveryInOrder) {
  core::ByzcastNode& alice = add_node({0, 0});
  core::ByzcastNode& bob = add_node({50, 0});

  std::vector<std::uint32_t> delivered;
  FifoReceiver receiver(bob, [&](NodeId origin, std::uint32_t seq,
                                 std::span<const std::uint8_t>) {
    EXPECT_EQ(origin, alice.id());
    delivered.push_back(seq);
  });

  sim_.run_until(des::millis(500));
  for (int i = 0; i < 10; ++i) alice.broadcast(sim::make_payload(i, 32));
  sim_.run_until(des::seconds(5));

  ASSERT_EQ(delivered.size(), 10u);
  for (std::uint32_t i = 0; i < 10; ++i) EXPECT_EQ(delivered[i], i);
  EXPECT_EQ(receiver.pending(), 0u);
  EXPECT_EQ(receiver.next_seq(alice.id()), 10u);
}

TEST_F(ReliableFixture, BroadcasterDrivesWindowFromNeighborStability) {
  core::ByzcastNode& alice = add_node({0, 0});
  add_node({50, 0});
  ReliableConfig config;
  config.window = 4;
  config.max_queue = 100;
  ReliableBroadcaster sender(sim_, alice, config);

  sim_.run_until(des::millis(500));  // beacons exchanged
  for (int i = 0; i < 20; ++i) {
    EXPECT_TRUE(sender.try_submit(sim::make_payload(i, 32)));
  }
  // Immediately after submission only a window's worth went on the air.
  EXPECT_LE(sender.broadcast_count(), 4u);
  EXPECT_EQ(sender.submitted(), 20u);

  // As stability reports come back, the queue drains completely.
  sim_.run_until(des::seconds(20));
  EXPECT_EQ(sender.broadcast_count(), 20u);
  EXPECT_EQ(sender.queued(), 0u);
  EXPECT_EQ(sender.stable_floor(), 20u);
}

TEST_F(ReliableFixture, BackpressureWhenQueueFull) {
  core::ByzcastNode& alice = add_node({0, 0});
  add_node({50, 0});
  ReliableConfig config;
  config.window = 2;
  config.max_queue = 3;
  ReliableBroadcaster sender(sim_, alice, config);
  sim_.run_until(des::millis(500));

  int accepted_submissions = 0;
  for (int i = 0; i < 10; ++i) {
    if (sender.try_submit(sim::make_payload(i, 32))) ++accepted_submissions;
  }
  // window(2) drained immediately + queue(3): everything else refused.
  EXPECT_LE(accepted_submissions, 5);
  EXPECT_GE(accepted_submissions, 3);
  // The refused submissions are the application's backpressure signal;
  // the accepted ones still go out eventually.
  sim_.run_until(des::seconds(20));
  EXPECT_EQ(sender.broadcast_count(),
            static_cast<std::uint64_t>(accepted_submissions));
}

TEST_F(ReliableFixture, StalledNeighborStopsGatingAfterTimeout) {
  core::ByzcastNode& alice = add_node({0, 0});
  add_node({50, 0});
  ReliableConfig config;
  config.window = 2;
  config.max_queue = 50;
  config.stall_timeout = des::seconds(3);
  ReliableBroadcaster sender(sim_, alice, config);
  sim_.run_until(des::millis(500));

  // A raw radio that beacons valid HELLOs with a permanently-zero
  // stability vector — the Byzantine window-freezer.
  auto freezer_mob = std::make_unique<mobility::StaticMobility>(
      geo::Vec2{0, 50});
  auto freezer_radio = std::make_unique<radio::Radio>(
      *medium_, static_cast<NodeId>(radios_.size()), *freezer_mob, 100);
  crypto::Signer freezer_signer =
      pki_.register_node(freezer_radio->local_id());
  net::PeriodicTimer freezer_beacon(sim_, des::millis(200), [&] {
    core::HelloMsg hello;
    hello.from = freezer_radio->local_id();
    hello.neighbors = {alice.id()};
    hello.sig = freezer_signer.sign(core::hello_sign_bytes(hello));
    freezer_radio->send(core::serialize(core::Packet{hello}));
  });
  freezer_beacon.start();
  sim_.run_until(des::seconds(1));

  for (int i = 0; i < 12; ++i) {
    ASSERT_TRUE(sender.try_submit(sim::make_payload(i, 32)));
  }
  // The freezer reports prefix 0 forever; after stall_timeout it must be
  // ignored and the honest neighbour's progress reopens the window.
  sim_.run_until(des::seconds(30));
  EXPECT_EQ(sender.broadcast_count(), 12u);
  EXPECT_EQ(sender.queued(), 0u);
}

TEST_F(ReliableFixture, NoNeighborsMeansNoGating) {
  core::ByzcastNode& loner = add_node({0, 0});
  ReliableBroadcaster sender(sim_, loner, {});
  sim_.run_until(des::millis(500));
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(sender.try_submit(sim::make_payload(i, 16)));
  }
  sim_.run_until(des::seconds(2));
  EXPECT_EQ(sender.broadcast_count(), 20u);
}

// ---------------------------------------------------------------------------
// End-to-end: reliable layer over a real multi-hop Byzantine network
// ---------------------------------------------------------------------------

TEST(ReliableIntegration, FifoOverMuteNetwork) {
  sim::ScenarioConfig config;
  config.seed = 14;  // a seed whose correct graph stays connected
  config.n = 25;
  config.area = {420, 420};
  config.tx_range = 140;
  config.adversaries = {{byz::AdversaryKind::kMute, 4}};
  sim::Network network(config);
  if (!network.correct_graph_connected()) {
    GTEST_SKIP() << "assumption violated for this seed";
  }
  des::Simulator& sim = network.simulator();

  NodeId sender_id = network.senders()[0];
  core::ByzcastNode& sender_node = *network.byzcast_node(sender_id);
  ReliableConfig rc;
  rc.window = 6;
  ReliableBroadcaster sender(sim, sender_node, rc);

  // FIFO receivers on every other correct node.
  std::vector<std::unique_ptr<FifoReceiver>> receivers;
  std::map<NodeId, std::vector<std::uint32_t>> delivered;
  for (NodeId id : network.correct_nodes()) {
    if (id == sender_id) continue;
    receivers.push_back(std::make_unique<FifoReceiver>(
        *network.byzcast_node(id),
        [&delivered, id](NodeId, std::uint32_t seq,
                         std::span<const std::uint8_t>) {
          delivered[id].push_back(seq);
        }));
  }

  sim.run_until(des::seconds(6));
  constexpr int kMessages = 30;
  for (int i = 0; i < kMessages; ++i) {
    ASSERT_TRUE(sender.try_submit(sim::make_payload(i, 128)));
  }
  sim.run_until(sim.now() + des::seconds(40));

  EXPECT_EQ(sender.broadcast_count(), static_cast<std::uint64_t>(kMessages));
  for (NodeId id : network.correct_nodes()) {
    if (id == sender_id) continue;
    const auto& seqs = delivered[id];
    ASSERT_EQ(seqs.size(), static_cast<std::size_t>(kMessages))
        << "node " << id;
    for (int i = 0; i < kMessages; ++i) {
      EXPECT_EQ(seqs[static_cast<std::size_t>(i)],
                static_cast<std::uint32_t>(i))
          << "node " << id << " delivered out of order";
    }
  }
}

}  // namespace
}  // namespace byzcast::reliable
