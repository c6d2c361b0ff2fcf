// Flight-recorder layer tests (obs/, DESIGN.md §10): profiler counters,
// timeline determinism across sweep thread counts, gauge tracking through
// crash/recovery, histogram export, and run-report JSON artifacts.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>

#include "obs/profiler.h"
#include "obs/run_report.h"
#include "obs/timeline.h"
#include "sim/sweep.h"
#include "stats/latency_recorder.h"

namespace byzcast {
namespace {

sim::ScenarioConfig small_scenario(std::uint64_t seed) {
  sim::ScenarioConfig config;
  config.seed = seed;
  config.n = 12;
  config.area = {300, 300};
  config.tx_range = 130;
  config.num_broadcasts = 4;
  config.payload_bytes = 64;
  config.cooldown = des::seconds(6);
  return config;
}

// ---------------------------------------------------------------------------
// Profiler
// ---------------------------------------------------------------------------

TEST(Profiler, RecordAccumulatesCountTotalMax) {
  obs::Profiler::reset();
  obs::Profiler::record(obs::ProfileCategory::kSerialize, 10);
  obs::Profiler::record(obs::ProfileCategory::kSerialize, 30);
  obs::Profiler::record(obs::ProfileCategory::kParse, 7);

  obs::Profiler::CategoryStats ser =
      obs::Profiler::stats(obs::ProfileCategory::kSerialize);
  EXPECT_EQ(ser.count, 2u);
  EXPECT_EQ(ser.total_ns, 40u);
  EXPECT_EQ(ser.max_ns, 30u);
  EXPECT_EQ(obs::Profiler::stats(obs::ProfileCategory::kParse).count, 1u);

  obs::Profiler::reset();
  EXPECT_EQ(obs::Profiler::stats(obs::ProfileCategory::kSerialize).count, 0u);
}

TEST(Profiler, DisabledScopeRecordsNothing) {
  obs::Profiler::reset();
  obs::Profiler::set_enabled(false);
  {
    BYZCAST_PROFILE(obs::ProfileCategory::kEventDispatch);
  }
  EXPECT_EQ(obs::Profiler::stats(obs::ProfileCategory::kEventDispatch).count,
            0u);
}

TEST(Profiler, EnabledScopeRecordsOnce) {
  obs::Profiler::reset();
  obs::Profiler::set_enabled(true);
  {
    BYZCAST_PROFILE(obs::ProfileCategory::kEventDispatch);
  }
  obs::Profiler::set_enabled(false);
  EXPECT_EQ(obs::Profiler::stats(obs::ProfileCategory::kEventDispatch).count,
            1u);
  obs::Profiler::reset();
}

TEST(Profiler, CategoryNamesAreStable) {
  EXPECT_STREQ(obs::profile_category_name(obs::ProfileCategory::kEventDispatch),
               "event_dispatch");
  EXPECT_STREQ(obs::profile_category_name(obs::ProfileCategory::kParse),
               "parse");
}

// ---------------------------------------------------------------------------
// Latency histogram export
// ---------------------------------------------------------------------------

// Pins the published bucket layout: the 1-2-5 ladder from 1 ms to 50 s,
// inclusive upper bounds, plus one overflow bucket. Reports from
// different runs/builds must bucket identically to stay comparable.
TEST(LatencyHistogram, EdgesAndCountsPinned) {
  stats::LatencyRecorder recorder;
  recorder.record(0.0005);  // below first edge -> bucket 0
  recorder.record(0.001);   // exactly on an edge -> inclusive, bucket 0
  recorder.record(0.0015);  // bucket 1 (0.002)
  recorder.record(0.05);    // bucket 5 (0.05, inclusive)
  recorder.record(100.0);   // above 50 s -> overflow bucket

  stats::LatencyHistogram hist = recorder.histogram();
  ASSERT_EQ(hist.upper_bounds.size(), stats::kLatencyHistogramEdges.size());
  for (std::size_t i = 0; i < hist.upper_bounds.size(); ++i) {
    EXPECT_EQ(hist.upper_bounds[i], stats::kLatencyHistogramEdges[i]) << i;
  }
  EXPECT_EQ(hist.upper_bounds.front(), 0.001);
  EXPECT_EQ(hist.upper_bounds.back(), 50.0);
  ASSERT_EQ(hist.counts.size(), hist.upper_bounds.size() + 1);
  EXPECT_EQ(hist.total, 5u);
  EXPECT_EQ(hist.counts[0], 2u);
  EXPECT_EQ(hist.counts[1], 1u);
  EXPECT_EQ(hist.counts[5], 1u);
  EXPECT_EQ(hist.counts.back(), 1u);
}

// ---------------------------------------------------------------------------
// Timeline
// ---------------------------------------------------------------------------

TEST(Timeline, DisabledByDefault) {
  sim::RunResult result = sim::run_scenario(small_scenario(3));
  EXPECT_TRUE(result.timeline.empty());
}

TEST(Timeline, DeltasSumToCumulativeMetrics) {
  sim::ScenarioConfig config = small_scenario(3);
  config.telemetry_interval = des::millis(500);
  sim::RunResult result = sim::run_scenario(config);
  ASSERT_FALSE(result.timeline.empty());

  std::uint64_t offered = 0, delivered = 0;
  for (const obs::TimelineSample& s : result.timeline.samples) {
    offered += s.frames_offered;
    delivered += s.frames_delivered;
  }
  EXPECT_EQ(offered, result.metrics.frames_offered());
  EXPECT_EQ(delivered, result.metrics.frames_delivered());
}

// The tentpole determinism property: per-replica timeline snapshots are
// byte-identical at any sweep --threads value (each replica is
// single-threaded; the engine only moves whole replicas across workers).
TEST(Timeline, SweepSnapshotsThreadCountInvariant) {
  auto run_at = [](unsigned threads) {
    sim::SweepSpec spec;
    sim::ScenarioConfig base = small_scenario(0);
    base.telemetry_interval = des::millis(500);
    spec.base(base).replicas(2).seed_base(77);
    spec.axis("n");
    for (std::size_t n : {10, 14}) {
      spec.value(static_cast<std::int64_t>(n),
                 [n](sim::ScenarioConfig& c) { c.n = n; });
    }
    sim::SweepResult result = sim::SweepRunner(threads).run(spec);
    std::string all;
    for (const sim::SweepPoint& point : result.points) {
      for (const sim::RunResult& replica : point.replicas) {
        EXPECT_FALSE(replica.timeline.empty());
        all += obs::snapshot(replica.timeline);
      }
    }
    return all;
  };
  std::string one = run_at(1);
  std::string eight = run_at(8);
  EXPECT_FALSE(one.empty());
  EXPECT_EQ(one, eight);
}

TEST(Timeline, GaugesTrackCrashAndRecovery) {
  sim::ScenarioConfig config = small_scenario(4);
  config.telemetry_interval = des::millis(250);
  config.fault_schedule.events.push_back(
      {des::seconds(7), sim::FaultKind::kCrashStop, 3, 0, {}});
  config.fault_schedule.events.push_back(
      {des::seconds(10), sim::FaultKind::kCrashRecover, 3, 0, {}});
  sim::RunResult result = sim::run_scenario(config);
  const obs::TimelineData& timeline = result.timeline;
  ASSERT_FALSE(timeline.empty());

  std::ptrdiff_t attached = timeline.column_index("radio3", "attached");
  std::ptrdiff_t running = timeline.column_index("node3", "running");
  std::ptrdiff_t store = timeline.column_index("node3", "store_size");
  ASSERT_GE(attached, 0);
  ASSERT_GE(running, 0);
  ASSERT_GE(store, 0);

  bool saw_down = false;
  for (const obs::TimelineSample& s : timeline.samples) {
    // Down interval is (7s, 10s); stay clear of the boundary samples
    // where the crash/recover event and the sampling tick coincide.
    if (s.at > des::seconds(7) + des::millis(100) &&
        s.at < des::seconds(10) - des::millis(100)) {
      EXPECT_EQ(s.gauges[static_cast<std::size_t>(attached)], 0) << s.at;
      EXPECT_EQ(s.gauges[static_cast<std::size_t>(running)], 0) << s.at;
      saw_down = true;
    }
  }
  EXPECT_TRUE(saw_down);
  const obs::TimelineSample& first = timeline.samples.front();
  const obs::TimelineSample& last = timeline.samples.back();
  EXPECT_EQ(first.gauges[static_cast<std::size_t>(attached)], 1);
  EXPECT_EQ(last.gauges[static_cast<std::size_t>(attached)], 1);
  EXPECT_EQ(last.gauges[static_cast<std::size_t>(running)], 1);
  // After recovery and catch-up the store holds the run's broadcasts.
  EXPECT_GT(last.gauges[static_cast<std::size_t>(store)], 0);
}

TEST(Timeline, SnapshotListsEveryColumnOnce) {
  sim::ScenarioConfig config = small_scenario(5);
  config.telemetry_interval = des::millis(500);
  sim::RunResult result = sim::run_scenario(config);
  std::string snap = obs::snapshot(result.timeline);
  // 12 nodes x (node gauges + radio gauge): every declared column appears
  // as a "column source.gauge" line exactly once.
  for (std::size_t i = 0; i < config.n; ++i) {
    std::string node = "column node" + std::to_string(i) + ".";
    std::string radio = "column radio" + std::to_string(i) + ".attached";
    EXPECT_NE(snap.find(node + "store_size"), std::string::npos) << i;
    EXPECT_NE(snap.find(node + "running"), std::string::npos) << i;
    EXPECT_NE(snap.find(radio), std::string::npos) << i;
    EXPECT_EQ(snap.find(radio), snap.rfind(radio)) << i;
  }
}

// ---------------------------------------------------------------------------
// Run reports
// ---------------------------------------------------------------------------

// Tiny structural JSON check: balanced braces/brackets outside strings,
// legal escape usage, nothing after the root value. Not a parser — just
// enough to catch the classic emitter bugs (stray commas handled by
// real consumers; unbalanced nesting and unterminated strings are not).
void expect_balanced_json(const std::string& text) {
  int depth = 0;
  bool in_string = false, escaped = false;
  for (char c : text) {
    if (in_string) {
      if (escaped) {
        escaped = false;
      } else if (c == '\\') {
        escaped = true;
      } else if (c == '"') {
        in_string = false;
      }
      continue;
    }
    if (c == '"') {
      in_string = true;
    } else if (c == '{' || c == '[') {
      ++depth;
    } else if (c == '}' || c == ']') {
      ASSERT_GT(depth, 0);
      --depth;
    }
  }
  EXPECT_FALSE(in_string);
  EXPECT_EQ(depth, 0);
}

TEST(RunReport, JsonIsWellFormedAndCarriesEverySection) {
  sim::ScenarioConfig config = small_scenario(6);
  config.telemetry_interval = des::millis(500);
  config.enable_msg_trace = true;
  sim::Network network(config);
  sim::RunResult result = sim::run_workload(network);

  obs::RunReport report;
  report.config = &config;
  report.result = &result;
  report.trace = &network.msg_trace();
  std::string json = report.to_json();

  expect_balanced_json(json);
  EXPECT_NE(json.find("\"schema\": \"byzcast-run-report/v1\""),
            std::string::npos);
  EXPECT_NE(json.find("\"tool\": \"byzsim\""), std::string::npos);
  for (const char* section : {"\"scenario\":", "\"result\":", "\"metrics\":",
                              "\"timeline\":", "\"profile\":", "\"trace\":"}) {
    EXPECT_NE(json.find(section), std::string::npos) << section;
  }
  // Telemetry was on and tracing was on; the profiler was not.
  EXPECT_NE(json.find("\"interval_s\": 0.5"), std::string::npos);
  EXPECT_NE(json.find("\"profile\": null"), std::string::npos);
  EXPECT_NE(json.find("\"events\": "), std::string::npos);
  EXPECT_NE(json.find("\"histogram\": "), std::string::npos);
}

TEST(RunReport, SameRunSameBytes) {
  sim::ScenarioConfig config = small_scenario(6);
  config.telemetry_interval = des::millis(500);
  auto render = [&config] {
    sim::RunResult result = sim::run_scenario(config);
    obs::RunReport report;
    report.config = &config;
    report.result = &result;
    return report.to_json();
  };
  EXPECT_EQ(render(), render());
}

TEST(RunReport, RequiresConfigAndResult) {
  obs::RunReport report;
  EXPECT_THROW((void)report.to_json(), std::logic_error);
}

TEST(RunReport, WriteSweepReportsEmitsOneFilePerPoint) {
  std::filesystem::path dir =
      std::filesystem::path(::testing::TempDir()) / "byzcast_obs_reports";
  std::filesystem::remove_all(dir);

  sim::SweepSpec spec;
  sim::ScenarioConfig base = small_scenario(0);
  base.telemetry_interval = des::millis(500);
  spec.base(base).replicas(2).seed_base(99);
  spec.axis("n");
  for (std::size_t n : {10, 12}) {
    spec.value(static_cast<std::int64_t>(n),
               [n](sim::ScenarioConfig& c) { c.n = n; });
  }
  sim::SweepResult result = sim::run_sweep(spec, 2);

  std::size_t written = obs::write_sweep_reports(result, dir.string(), "obs_test");
  EXPECT_EQ(written, 2u);
  for (const char* name : {"point-0-0.json", "point-1-0.json"}) {
    std::ifstream file(dir / name, std::ios::binary);
    ASSERT_TRUE(file.good()) << name;
    std::ostringstream text;
    text << file.rdbuf();
    expect_balanced_json(text.str());
    EXPECT_NE(text.str().find("\"schema\": \"byzcast-sweep-report/v1\""),
              std::string::npos);
    EXPECT_NE(text.str().find("\"tool\": \"obs_test\""), std::string::npos);
    EXPECT_NE(text.str().find("\"replicas\": ["), std::string::npos);
    EXPECT_NE(text.str().find("\"timeline\": {"), std::string::npos);
  }
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace byzcast
