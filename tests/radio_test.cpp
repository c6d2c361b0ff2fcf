#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "des/simulator.h"
#include "mobility/random_waypoint.h"
#include "mobility/scripted_mobility.h"
#include "mobility/static_mobility.h"
#include "radio/medium.h"
#include "radio/propagation.h"
#include "radio/radio.h"

namespace byzcast::radio {
namespace {

struct Received {
  NodeId from;
  util::Buffer payload;
  des::SimTime at;
};

/// Test fixture: a medium with zero jitter (so timing assertions are
/// exact unless a test opts in); nodes stand still unless added through
/// add_mobile().
class MediumTest : public ::testing::Test {
 protected:
  void build(MediumConfig config,
             std::unique_ptr<PropagationModel> propagation = nullptr) {
    if (!propagation) propagation = std::make_unique<UnitDisk>();
    medium_ = std::make_unique<Medium>(sim_, std::move(propagation), config,
                                       &metrics_);
  }

  NodeId add_node(geo::Vec2 position, double range = 100) {
    return add_mobile(std::make_unique<mobility::StaticMobility>(position),
                      range);
  }

  NodeId add_mobile(std::unique_ptr<mobility::MobilityModel> model,
                    double range) {
    auto id = static_cast<NodeId>(radios_.size());
    mobility_.push_back(std::move(model));
    radios_.push_back(
        std::make_unique<Radio>(*medium_, id, *mobility_.back(), range));
    received_.emplace_back();
    radios_.back()->set_receive_handler([this, id](const Frame& frame) {
      received_[id].push_back({frame.sender, frame.payload, sim_.now()});
    });
    return id;
  }

  /// 58 radios on every kind of path the grid must keep up with:
  /// random-waypoint nodes at three speed bands, static nodes, mixed
  /// ranges, and a scripted node whose 100 m/s leg — the fleet's
  /// fastest, so it sets the grid's staleness margin — leaves the field
  /// into negative coordinates. That node crosses 40% of a grid cell
  /// between refreshes, so a grid that ignored speeds would miss
  /// in-range radios.
  void add_mobile_fleet() {
    des::Rng rng(77);
    const double ranges[] = {60, 90, 150};
    const double speeds[][2] = {{0.5, 4}, {5, 20}, {30, 60}};
    for (int i = 0; i < 42; ++i) {
      mobility::RandomWaypointConfig config;
      config.area = {900, 700};
      config.min_speed_mps = speeds[i % 3][0];
      config.max_speed_mps = speeds[i % 3][1];
      config.pause = des::millis(i % 2 == 0 ? 0 : 300);
      add_mobile(std::make_unique<mobility::RandomWaypoint>(
                     geo::Vec2{rng.uniform(0, 900), rng.uniform(0, 700)},
                     config, rng.split()),
                 ranges[i % 3]);
    }
    for (int i = 0; i < 15; ++i) {
      add_node({rng.uniform(0, 900), rng.uniform(0, 700)}, ranges[i % 3]);
    }
    add_mobile(std::make_unique<mobility::ScriptedMobility>(
                   std::vector<mobility::ScriptedMobility::Keyframe>{
                       {des::millis(500), {60, 40}},
                       {des::millis(3000), {-90, -160}},
                       {des::seconds(20), {300, 300}}}),
               120);
  }

  /// Brute-force scan: every other radio within `range` of `id` now.
  std::vector<NodeId> in_range_of(NodeId id, double range) const {
    std::vector<NodeId> out;
    const geo::Vec2 center = medium_->position_of(id);
    for (NodeId other = 0; other < radios_.size(); ++other) {
      if (other != id &&
          geo::distance(center, medium_->position_of(other)) <= range) {
        out.push_back(other);
      }
    }
    return out;
  }

  des::Simulator sim_{1};
  stats::Metrics metrics_;
  std::unique_ptr<Medium> medium_;
  std::vector<std::unique_ptr<mobility::MobilityModel>> mobility_;
  std::vector<std::unique_ptr<Radio>> radios_;
  std::vector<std::vector<Received>> received_;
};

MediumConfig quiet_config() {
  MediumConfig config;
  config.tx_jitter_max = 0;  // deterministic timing
  return config;
}

TEST_F(MediumTest, DeliversWithinRangeOnly) {
  build(quiet_config());
  add_node({0, 0});
  add_node({50, 0});    // in range (100)
  add_node({150, 0});   // out of range
  radios_[0]->send({1, 2, 3});
  sim_.run_until(des::seconds(1));
  EXPECT_EQ(received_[1].size(), 1u);
  EXPECT_TRUE(received_[2].empty());
  EXPECT_TRUE(received_[0].empty());  // no self-reception
  EXPECT_EQ(received_[1][0].from, 0u);
  EXPECT_EQ(received_[1][0].payload, (std::vector<std::uint8_t>{1, 2, 3}));
}

TEST_F(MediumTest, DeliveryDelayIsAirtimePlusLatency) {
  MediumConfig config = quiet_config();
  config.bitrate_bps = 1e6;
  config.latency = des::micros(5);
  build(config);
  add_node({0, 0});
  add_node({10, 0});
  std::vector<std::uint8_t> payload(66);  // 66 + 34 overhead = 100 B
  radios_[0]->send(payload);
  sim_.run_until(des::seconds(1));
  ASSERT_EQ(received_[1].size(), 1u);
  // 100 B at 1 Mb/s = 800 us airtime, + 5 us latency.
  EXPECT_EQ(received_[1][0].at, des::micros(805));
}

TEST_F(MediumTest, SimultaneousTransmissionsCollideAtCommonReceiver) {
  build(quiet_config());
  NodeId a = add_node({0, 0});
  NodeId b = add_node({100, 0});
  add_node({50, 0});  // c hears both
  radios_[a]->send({1});
  radios_[b]->send({2});
  sim_.run_until(des::seconds(1));
  EXPECT_TRUE(received_[2].empty());  // both corrupted
  // a and b are out of range of each other (distance 100 <= range? exactly
  // 100 == range, so actually in range... both were transmitting:
  // half-duplex drops anyway).
  EXPECT_TRUE(received_[0].empty());
  EXPECT_TRUE(received_[1].empty());
  EXPECT_GE(metrics_.frames_collided(), 2u);
}

TEST_F(MediumTest, CollisionsCanBeDisabled) {
  MediumConfig config = quiet_config();
  config.collisions_enabled = false;
  build(config);
  NodeId a = add_node({0, 0});
  NodeId b = add_node({100, 0});
  add_node({50, 0});
  radios_[a]->send({1});
  radios_[b]->send({2});
  sim_.run_until(des::seconds(1));
  EXPECT_EQ(received_[2].size(), 2u);
}

TEST_F(MediumTest, StaggeredTransmissionsDoNotCollide) {
  build(quiet_config());
  NodeId a = add_node({0, 0});
  NodeId b = add_node({100, 0});
  add_node({50, 0});
  radios_[a]->send({1});
  sim_.schedule_after(des::millis(100), [&] { radios_[b]->send({2}); });
  sim_.run_until(des::seconds(1));
  EXPECT_EQ(received_[2].size(), 2u);
}

TEST_F(MediumTest, HalfDuplexReceiverMissesWhileTransmitting) {
  build(quiet_config());
  NodeId a = add_node({0, 0});
  NodeId b = add_node({50, 0});
  // b transmits at the same instant a does: b cannot hear a's frame.
  radios_[a]->send({1});
  radios_[b]->send({2});
  sim_.run_until(des::seconds(1));
  EXPECT_TRUE(received_[1].empty());
  // a equally missed b's frame.
  EXPECT_TRUE(received_[0].empty());
}

TEST_F(MediumTest, SenderSerializesOwnTransmissions) {
  build(quiet_config());
  NodeId a = add_node({0, 0});
  add_node({50, 0});
  // Two back-to-back sends from one radio must both arrive (queued, not
  // self-collided).
  radios_[a]->send({1});
  radios_[a]->send({2});
  sim_.run_until(des::seconds(1));
  EXPECT_EQ(received_[1].size(), 2u);
}

TEST_F(MediumTest, BaseLossDropsFraction) {
  MediumConfig config = quiet_config();
  config.base_loss_prob = 0.5;
  build(config);
  NodeId a = add_node({0, 0});
  add_node({50, 0});
  for (int i = 0; i < 400; ++i) {
    sim_.schedule_after(des::millis(10) * (i + 1),
                        [&] { radios_[a]->send({7}); });
  }
  sim_.run_until(des::seconds(100));
  EXPECT_NEAR(static_cast<double>(received_[1].size()), 200.0, 40.0);
  EXPECT_GT(metrics_.frames_dropped(), 100u);
}

TEST_F(MediumTest, MetricsCountFrames) {
  build(quiet_config());
  NodeId a = add_node({0, 0});
  add_node({50, 0});
  add_node({60, 0});
  radios_[a]->send({1, 2, 3});
  sim_.run_until(des::seconds(1));
  EXPECT_EQ(metrics_.frames_sent(), 1u);
  EXPECT_EQ(metrics_.frames_delivered(), 2u);
}

TEST_F(MediumTest, RejectsDuplicateRegistrationAndUnknownSender) {
  build(quiet_config());
  add_node({0, 0});
  EXPECT_THROW(Radio(*medium_, 0, *mobility_[0], 100), std::invalid_argument);
  EXPECT_THROW(medium_->transmit(42, {1}), std::out_of_range);
}

TEST_F(MediumTest, NeighborsOfUsesCurrentPositions) {
  build(quiet_config());
  add_node({0, 0});
  add_node({50, 0});
  add_node({500, 0});
  EXPECT_EQ(medium_->neighbors_of(0, 100), (std::vector<NodeId>{1}));
  EXPECT_EQ(medium_->neighbors_of(2, 100), (std::vector<NodeId>{}));
}

TEST_F(MediumTest, NeighborsOfMatchesBruteForceOnAMobileFleet) {
  // The grid is refreshed once a second and whenever a radio registers;
  // sampling every 170 ms for 10 s lands at every staleness in between.
  // Halfway through, a radio registers far outside everyone else's
  // bounding box, which refits the grid and widens its cells.
  build(quiet_config());
  add_mobile_fleet();
  std::size_t found = 0;
  for (int step = 0; step <= 60; ++step) {
    sim_.run_until(des::millis(170) * step);
    if (step == 25) add_node({-6000, 9000}, 90);
    for (NodeId id = 0; id < radios_.size(); ++id) {
      for (double r :
           {radios_[id]->range(), 40.0, 75.0, 120.0, 200.0, 400.0, 12000.0}) {
        const std::vector<NodeId> want = in_range_of(id, r);
        found += want.size();
        ASSERT_EQ(medium_->neighbors_of(id, r), want)
            << "node " << id << " r=" << r << " t=" << sim_.now();
      }
    }
  }
  EXPECT_GT(found, 10000u);
}

TEST_F(MediumTest, FanOutReachesExactlyTheBruteForceInRangeSet) {
  // Every radio transmits once per round, 1 ms apart so no frame
  // overlaps another; with loss and collisions off, each frame must
  // reach exactly the radios in range of its sender when it airs.
  MediumConfig config = quiet_config();
  config.collisions_enabled = false;
  build(config);  // UnitDisk
  add_mobile_fleet();
  std::map<std::pair<NodeId, int>, std::vector<NodeId>> want;
  for (int round = 0; round < 40; ++round) {
    sim_.schedule_at(des::millis(300 + 240 * round), [this, round, &want] {
      if (round == 20) add_node({-6000, 9000}, 90);
      for (NodeId tx = 0; tx < radios_.size(); ++tx) {
        sim_.schedule_after(des::millis(tx), [this, tx, round, &want] {
          std::vector<NodeId> in_range = in_range_of(tx, radios_[tx]->range());
          if (!in_range.empty()) want[{tx, round}] = std::move(in_range);
          radios_[tx]->send({static_cast<std::uint8_t>(round)});
        });
      }
    });
  }
  sim_.run_until(des::seconds(12));

  std::map<std::pair<NodeId, int>, std::vector<NodeId>> got;
  for (NodeId rx = 0; rx < received_.size(); ++rx) {
    for (const Received& frame : received_[rx]) {
      got[{frame.from, frame.payload.data()[0]}].push_back(rx);
    }
  }
  EXPECT_EQ(got, want);
  EXPECT_GT(metrics_.frames_delivered(), 1000u);
  EXPECT_EQ(metrics_.frames_collided(), 0u);
}

TEST_F(MediumTest, CarrierSenseAvoidsInCellCollisions) {
  MediumConfig config = quiet_config();
  config.carrier_sense = true;
  build(config);
  NodeId a = add_node({0, 0});
  NodeId b = add_node({50, 0});
  add_node({25, 0});  // c hears both
  // a and b transmit "simultaneously"; with carrier sense b defers past
  // a's frame, so c receives both.
  radios_[a]->send({1});
  sim_.schedule_after(des::micros(100), [&] { radios_[b]->send({2}); });
  sim_.run_until(des::seconds(1));
  EXPECT_EQ(received_[2].size(), 2u);
  EXPECT_EQ(metrics_.frames_collided(), 0u);
}

TEST_F(MediumTest, CarrierSenseCannotStopHiddenTerminals) {
  MediumConfig config = quiet_config();
  config.carrier_sense = true;
  build(config);
  NodeId a = add_node({0, 0});
  NodeId b = add_node({200, 0});  // out of range of a: cannot sense it
  add_node({100, 0});             // c hears both
  radios_[a]->send({1});
  sim_.schedule_after(des::micros(100), [&] { radios_[b]->send({2}); });
  sim_.run_until(des::seconds(1));
  EXPECT_TRUE(received_[2].empty());  // the classic hidden-terminal loss
}

TEST_F(MediumTest, CarrierSenseSerializesBursts) {
  MediumConfig config = quiet_config();
  config.carrier_sense = true;
  build(config);
  std::vector<NodeId> senders;
  for (int i = 0; i < 5; ++i) {
    senders.push_back(add_node({static_cast<double>(10 * i), 0}));
  }
  NodeId listener = add_node({25, 30});
  // Five in-range nodes fire within one airtime of each other; carrier
  // sense must deliver all five frames to the listener.
  for (std::size_t i = 0; i < senders.size(); ++i) {
    sim_.schedule_after(des::micros(50) * i, [this, &senders, i] {
      radios_[senders[i]]->send({static_cast<std::uint8_t>(i)});
    });
  }
  sim_.run_until(des::seconds(1));
  EXPECT_EQ(received_[listener].size(), 5u);
}

// ---------------------------------------------------------------------------
// Propagation models
// ---------------------------------------------------------------------------

TEST(Propagation, UnitDiskIsSharp) {
  UnitDisk model;
  des::Rng rng(1);
  EXPECT_TRUE(model.delivered(99.9, 100, rng));
  EXPECT_TRUE(model.delivered(100.0, 100, rng));
  EXPECT_FALSE(model.delivered(100.1, 100, rng));
  EXPECT_DOUBLE_EQ(model.max_range(100), 100);
}

TEST(Propagation, ShadowingValidatesParams) {
  LogDistanceShadowing::Params p;
  p.inner_fraction = 0.9;
  p.outer_fraction = 0.5;
  EXPECT_THROW(LogDistanceShadowing{p}, std::invalid_argument);
  p = {};
  p.shadowing_sigma = -1;
  EXPECT_THROW(LogDistanceShadowing{p}, std::invalid_argument);
}

TEST(Propagation, ShadowingBandIsMonotone) {
  LogDistanceShadowing::Params p;
  p.shadowing_sigma = 0;  // deterministic band for this test
  LogDistanceShadowing model(p);
  des::Rng rng(3);
  auto rate = [&](double dist) {
    int ok = 0;
    for (int i = 0; i < 2000; ++i) ok += model.delivered(dist, 100, rng);
    return ok / 2000.0;
  };
  EXPECT_DOUBLE_EQ(rate(70), 1.0);    // inside inner band
  double mid = rate(100);             // middle of the fade band
  EXPECT_GT(mid, 0.2);
  EXPECT_LT(mid, 0.8);
  EXPECT_DOUBLE_EQ(rate(130), 0.0);   // beyond outer band
  EXPECT_GT(rate(85), mid);           // closer in is likelier
}

TEST(Propagation, ShadowingMaxRangeCoversJitter) {
  LogDistanceShadowing model;
  EXPECT_GT(model.max_range(100), 120.0);
}

}  // namespace
}  // namespace byzcast::radio
