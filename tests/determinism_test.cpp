// Determinism regression (DESIGN.md §6): a (ScenarioConfig, seed) pair
// fully determines a run. Two runs of the same pair must produce
// byte-identical metrics snapshots — including runs that exercise the
// fault injector, whose queued events are part of the deterministic
// event order.
#include <gtest/gtest.h>

#include "crypto/hash.h"
#include "obs/timeline.h"
#include "sim/runner.h"

namespace byzcast {
namespace {

sim::ScenarioConfig small_scenario(std::uint64_t seed) {
  sim::ScenarioConfig config;
  config.seed = seed;
  config.n = 14;
  config.area = {320, 320};
  config.tx_range = 130;
  config.num_broadcasts = 6;
  config.payload_bytes = 64;
  config.cooldown = des::seconds(8);
  return config;
}

TEST(Determinism, SameSeedSameSnapshot) {
  sim::ScenarioConfig config = small_scenario(5);
  std::string a = stats::snapshot(sim::run_scenario(config).metrics);
  std::string b = stats::snapshot(sim::run_scenario(config).metrics);
  EXPECT_FALSE(a.empty());
  EXPECT_EQ(a, b);
}

TEST(Determinism, SameSeedSameSnapshotWithFaultSchedule) {
  sim::ScenarioConfig config = small_scenario(5);
  config.fault_schedule.events.push_back(
      {des::seconds(7), sim::FaultKind::kCrashStop, 2, 0, {}});
  config.fault_schedule.events.push_back(
      {des::millis(7500), sim::FaultKind::kRadioOutage, 5, 0, {}});
  config.fault_schedule.events.push_back(
      {des::seconds(9), sim::FaultKind::kRadioRestore, 5, 0, {}});
  config.fault_schedule.events.push_back(
      {des::seconds(11), sim::FaultKind::kCrashRecover, 2, 0, {}});
  std::string a = stats::snapshot(sim::run_scenario(config).metrics);
  std::string b = stats::snapshot(sim::run_scenario(config).metrics);
  EXPECT_FALSE(a.empty());
  EXPECT_NE(a.find("lifecycle down_events=2"), std::string::npos);
  EXPECT_EQ(a, b);
}

TEST(Determinism, DifferentSeedsDiverge) {
  std::string a =
      stats::snapshot(sim::run_scenario(small_scenario(5)).metrics);
  std::string b =
      stats::snapshot(sim::run_scenario(small_scenario(6)).metrics);
  EXPECT_NE(a, b);
}

/// The scenario every golden below starts from.
sim::ScenarioConfig golden_config() {
  sim::ScenarioConfig config;
  config.seed = 20260805;
  config.n = 16;
  config.area = {340, 340};
  config.tx_range = 130;
  config.num_broadcasts = 8;
  config.payload_bytes = 96;
  config.cooldown = des::seconds(8);
  return config;
}

void expect_snapshot(const sim::ScenarioConfig& config, std::size_t size,
                     std::uint64_t hash) {
  std::string snap = stats::snapshot(sim::run_scenario(config).metrics);
  EXPECT_EQ(snap.size(), size);
  EXPECT_EQ(crypto::fnv1a(snap), hash) << snap;
}

// Golden snapshot: the hash below was recorded on the commit *before* the
// zero-copy frame pipeline landed, so it pins the refactor (and any future
// byte-path change) to bit-identical behaviour — same wire bytes, same
// event order, same stats. If this fails, the byte path changed observable
// behaviour; do not update the constant without understanding why.
TEST(Determinism, GoldenSnapshotHashUnchanged) {
  sim::ScenarioConfig config = golden_config();
  config.adversaries = {{byz::AdversaryKind::kMute, 1},
                        {byz::AdversaryKind::kLiar, 1}};
  expect_snapshot(config, 2508u, 0x4771d0fe352e8837ULL);
}

// The golden above only runs ByzcastNodes straight on their radios. The
// goldens below pin the other fleet-building paths — each recorded
// before the node constructors and sim::Network's node wiring were
// unified — so a wiring change that perturbs the rng splits or the event
// order of any of them shows up here.

// Every node behind a seeded ImpairedTransport over its radio.
TEST(Determinism, GoldenImpairedSnapshotHashUnchanged) {
  sim::ScenarioConfig config = golden_config();
  config.adversaries = {{byz::AdversaryKind::kMute, 1}};
  config.impairment.link.drop = 0.2;
  config.impairment.link.duplicate = 0.05;
  config.impairment.link.reorder = 0.1;
  expect_snapshot(config, 2736u, 0x3d764c47f9e9c002ULL);
}

TEST(Determinism, GoldenFloodingSnapshotHashUnchanged) {
  sim::ScenarioConfig config = golden_config();
  config.protocol = sim::ProtocolKind::kFlooding;
  config.adversaries = {{byz::AdversaryKind::kMute, 2}};
  expect_snapshot(config, 2274u, 0x463ce0e810e890f2ULL);
}

TEST(Determinism, GoldenMultiOverlaySnapshotHashUnchanged) {
  sim::ScenarioConfig config = golden_config();
  config.protocol = sim::ProtocolKind::kMultiOverlay;
  config.n = 40;
  config.area = {260, 260};
  config.adversaries = {{byz::AdversaryKind::kMute, 2}};
  expect_snapshot(config, 8936u, 0x7bcfe0d330bf7fa7ULL);
}

// A node joining mid-run behind the same impairment as the seed fleet.
TEST(Determinism, GoldenImpairedJoinSnapshotHashUnchanged) {
  sim::ScenarioConfig config = golden_config();
  config.impairment.link.drop = 0.1;
  config.fault_schedule.events.push_back(
      {des::seconds(7), sim::FaultKind::kJoin, kInvalidNode, 0, {170, 170}});
  expect_snapshot(config, 4055u, 0x4073c85bc553c8e1ULL);
}

// The goldens above end before the first purge. This one runs 86 s of
// sim time, past the 60 s purge_timeout, with range-sync exchanging
// frontiers every 4 s under loss and mutes — so purges, frontier
// digests and the recovery windows all feed the hash. Recorded before
// MessageStore's accepted set became a per-origin prefix plus tail.
TEST(Determinism, GoldenLongSyncPurgeSnapshotHashUnchanged) {
  sim::ScenarioConfig config = golden_config();
  config.num_broadcasts = 240;
  config.broadcast_interval = des::millis(250);
  config.cooldown = des::seconds(20);
  config.adversaries = {{byz::AdversaryKind::kMute, 2}};
  config.impairment.link.drop = 0.2;
  config.protocol_config.sync.enabled = true;
  config.protocol_config.sync.period = des::seconds(4);
  expect_snapshot(config, 63692u, 0x6bc11b1f97f4c573ULL);
}

// The obs::Timeline samples from a DES timer, so its snapshot is part of
// the deterministic surface too: same (ScenarioConfig, seed) — with
// telemetry enabled — must give byte-identical timeline dumps, and the
// metrics snapshot must match the telemetry-off run exactly (the sampler
// only reads counters; it must never perturb the event order).
TEST(Determinism, TelemetryRunsAreByteIdenticalAndNonPerturbing) {
  sim::ScenarioConfig config = small_scenario(5);
  std::string plain = stats::snapshot(sim::run_scenario(config).metrics);

  config.telemetry_interval = des::millis(500);
  sim::RunResult a = sim::run_scenario(config);
  sim::RunResult b = sim::run_scenario(config);
  EXPECT_FALSE(a.timeline.empty());
  EXPECT_EQ(obs::snapshot(a.timeline), obs::snapshot(b.timeline));
  EXPECT_EQ(stats::snapshot(a.metrics), stats::snapshot(b.metrics));
  EXPECT_EQ(stats::snapshot(a.metrics), plain);
}

TEST(Determinism, AdversarialRunsAreDeterministicToo) {
  sim::ScenarioConfig config = small_scenario(9);
  config.adversaries.push_back({byz::AdversaryKind::kMute, 2});
  config.fault_schedule.events.push_back(
      {des::seconds(7), sim::FaultKind::kCrashStop, 1, 0, {}});
  config.fault_schedule.events.push_back(
      {des::seconds(10), sim::FaultKind::kCrashRecover, 1, 0, {}});
  std::string a = stats::snapshot(sim::run_scenario(config).metrics);
  std::string b = stats::snapshot(sim::run_scenario(config).metrics);
  EXPECT_EQ(a, b);
}

}  // namespace
}  // namespace byzcast
