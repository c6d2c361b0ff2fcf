// Message-lifecycle tracing tests (obs/msg_trace.h, DESIGN.md §15): the
// bounded sampling recorder, the JSONL round-trip, clock alignment in
// the merger, propagation-DAG reconstruction (including the range-sync
// catch-up edge of a crash-recovered node), and the two invariants the
// whole layer stands on — trace-off runs construct nothing, and
// trace-on runs observe without perturbing the event order.
#include <gtest/gtest.h>

#include <map>
#include <sstream>

#include "obs/msg_trace.h"
#include "sim/runner.h"

namespace byzcast {
namespace {

using obs::MsgEventKind;

// ---------------------------------------------------------------------------
// Recorder: sampling and bounds
// ---------------------------------------------------------------------------

TEST(MsgTraceRecorder, RecordsLifecycleEvents) {
  obs::MsgTraceRecorder rec;
  rec.record(100, MsgEventKind::kBroadcast, 0, 0, 7);
  rec.record(250, MsgEventKind::kFirstHeard, 1, 0, 7, /*peer=*/0);
  rec.record(260, MsgEventKind::kDelivered, 1, 0, 7, /*peer=*/0);
  ASSERT_EQ(rec.events().size(), 3u);
  EXPECT_EQ(rec.events()[1].kind, MsgEventKind::kFirstHeard);
  EXPECT_EQ(rec.events()[1].peer, 0u);
  EXPECT_EQ(rec.events()[2].at, 260u);
  EXPECT_EQ(rec.suppressed(), 0u);
}

TEST(MsgTraceRecorder, SamplingIsAFleetAgreedPureFunctionOfTheId) {
  // Whatever subset sample_every=3 selects, every node selects the SAME
  // subset — the predicate depends only on (origin, seq).
  std::size_t sampled = 0;
  for (std::uint32_t seq = 0; seq < 300; ++seq) {
    bool s = obs::msg_trace_sampled(2, seq, 3);
    EXPECT_EQ(s, obs::msg_trace_sampled(2, seq, 3));
    if (s) ++sampled;
  }
  // splitmix64 spreads ids uniformly; 300 draws at rate 1/3 land well
  // inside [60, 140].
  EXPECT_GT(sampled, 60u);
  EXPECT_LT(sampled, 140u);
  // sample_every <= 1 keeps everything.
  EXPECT_TRUE(obs::msg_trace_sampled(5, 17, 0));
  EXPECT_TRUE(obs::msg_trace_sampled(5, 17, 1));
}

TEST(MsgTraceRecorder, UnsampledIdsAreDroppedByEveryRecorder) {
  obs::MsgTraceConfig config;
  config.sample_every = 4;
  obs::MsgTraceRecorder a(config);
  obs::MsgTraceRecorder b(config);
  for (std::uint32_t seq = 0; seq < 64; ++seq) {
    a.record(seq, MsgEventKind::kBroadcast, 0, 1, seq);
    b.record(seq, MsgEventKind::kFirstHeard, 2, 1, seq, 0);
  }
  ASSERT_EQ(a.events().size(), b.events().size());
  for (std::size_t i = 0; i < a.events().size(); ++i) {
    EXPECT_EQ(a.events()[i].seq, b.events()[i].seq) << "divergent sampling";
  }
  EXPECT_LT(a.events().size(), 64u);
  EXPECT_GT(a.events().size(), 0u);
  // Node-scoped events have no id to hash, so the sampler never drops
  // them — even where their empty id would hash to "unsampled".
  ASSERT_FALSE(obs::msg_trace_sampled(kInvalidNode, 0, 4));
  a.record(100, MsgEventKind::kSyncOpen, 0, kInvalidNode, 0, /*peer=*/1, 42);
  ASSERT_EQ(a.count(MsgEventKind::kSyncOpen), 1u);
  EXPECT_EQ(a.events().back().a, 42u);
}

TEST(MsgTraceRecorder, MessageAndEventCapsBound_Memory) {
  obs::MsgTraceConfig config;
  config.max_messages = 2;
  config.max_events_per_message = 3;
  obs::MsgTraceRecorder rec(config);
  // Two ids fit; the third is refused outright.
  rec.record(1, MsgEventKind::kBroadcast, 0, 0, 0);
  rec.record(2, MsgEventKind::kBroadcast, 0, 0, 1);
  rec.record(3, MsgEventKind::kBroadcast, 0, 0, 2);
  EXPECT_EQ(rec.events().size(), 2u);
  EXPECT_EQ(rec.suppressed(), 1u);
  // Per-id cap: two more events fit for id (0,0), the next is dropped.
  rec.record(4, MsgEventKind::kGossiped, 0, 0, 0);
  rec.record(5, MsgEventKind::kRequested, 1, 0, 0, 0);
  rec.record(6, MsgEventKind::kRequested, 1, 0, 0, 0);
  EXPECT_EQ(rec.events().size(), 4u);
  EXPECT_EQ(rec.suppressed(), 2u);
  // Node-scoped events ignore max_messages and draw on a per-recording-
  // node budget of max_events_per_message instead.
  for (des::SimTime t = 10; t < 14; ++t) {
    rec.record(t, MsgEventKind::kSuspect, 1, kInvalidNode, 0, /*peer=*/2, 1);
  }
  rec.record(20, MsgEventKind::kOverlayJoin, 2, kInvalidNode, 0);
  EXPECT_EQ(rec.count(MsgEventKind::kSuspect), 3u);
  EXPECT_EQ(rec.count(MsgEventKind::kOverlayJoin), 1u);
  EXPECT_EQ(rec.suppressed(), 3u);
}

// ---------------------------------------------------------------------------
// JSONL round-trip and parsing
// ---------------------------------------------------------------------------

TEST(MsgTraceJsonl, RoundTripsAnchorAndEvents) {
  obs::MsgTraceRecorder rec;
  obs::MsgTraceAnchor anchor;
  anchor.node = 3;
  anchor.n = 8;
  anchor.wall_clock = true;
  anchor.anchor_env = 1234;
  anchor.anchor_unix_us = 1'700'000'000'000'000ull;
  rec.set_anchor(anchor);
  rec.record(100, MsgEventKind::kFirstHeard, 3, 1, 9, /*peer=*/5);
  rec.record(150, MsgEventKind::kDelivered, 3, 1, 9, /*peer=*/5);
  rec.record(300, MsgEventKind::kRejected, 3, 2, 0, /*peer=*/kInvalidNode);

  std::stringstream ss;
  rec.write_jsonl(ss);
  obs::ParsedMsgTrace parsed = obs::parse_msg_trace(ss);

  EXPECT_EQ(parsed.anchor.node, 3u);
  EXPECT_EQ(parsed.anchor.n, 8u);
  EXPECT_TRUE(parsed.anchor.wall_clock);
  EXPECT_EQ(parsed.anchor.anchor_env, 1234u);
  EXPECT_EQ(parsed.anchor.anchor_unix_us, 1'700'000'000'000'000ull);
  ASSERT_EQ(parsed.events.size(), 3u);
  EXPECT_EQ(parsed.events[0].kind, MsgEventKind::kFirstHeard);
  EXPECT_EQ(parsed.events[0].peer, 5u);
  EXPECT_EQ(parsed.events[2].kind, MsgEventKind::kRejected);
  EXPECT_EQ(parsed.events[2].peer, kInvalidNode) << "-1 peer must round-trip";
}

TEST(MsgTraceJsonl, ParserRejectsForeignSchemas) {
  std::stringstream wrong(R"({"schema":"something-else/v1","node":0})"
                          "\n");
  EXPECT_THROW((void)obs::parse_msg_trace(wrong), std::invalid_argument);
  std::stringstream empty("");
  EXPECT_THROW((void)obs::parse_msg_trace(empty), std::invalid_argument);
  // v1 files predate the "a" argument.
  std::stringstream v1(R"({"schema":"byzcast-msg-trace/v1","node":0,"n":1,)"
                       R"("clock":"sim","anchor_env_us":0,"anchor_unix_us":0})"
                       "\n");
  EXPECT_THROW((void)obs::parse_msg_trace(v1), std::invalid_argument);

  // Trace files are untrusted: every number must be a whole decimal
  // integer in its field's range, and the error names the key.
  auto anchor_with = [](const std::string& key, const std::string& value) {
    std::map<std::string, std::string> f = {{"node", "0"},
                                            {"n", "4"},
                                            {"anchor_env_us", "0"},
                                            {"anchor_unix_us", "0"}};
    f[key] = value;
    return R"({"schema":"byzcast-msg-trace/v2","node":)" + f["node"] +
           R"(,"n":)" + f["n"] + R"(,"clock":"sim","anchor_env_us":)" +
           f["anchor_env_us"] + R"(,"anchor_unix_us":)" +
           f["anchor_unix_us"] + "}\n";
  };
  auto event_with = [](const std::string& key, const std::string& value) {
    std::map<std::string, std::string> f = {{"t_us", "5"},  {"node", "1"},
                                            {"peer", "-1"}, {"origin", "0"},
                                            {"seq", "3"},   {"a", "0"}};
    f[key] = value;
    return R"({"t_us":)" + f["t_us"] + R"(,"kind":"delivered","node":)" +
           f["node"] + R"(,"peer":)" + f["peer"] + R"(,"origin":)" +
           f["origin"] + R"(,"seq":)" + f["seq"] + R"(,"a":)" + f["a"] +
           "}\n";
  };
  auto expect_rejected = [](const std::string& text, const std::string& key) {
    std::stringstream in(text);
    try {
      (void)obs::parse_msg_trace(in);
      ADD_FAILURE() << "accepted: " << text;
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("\"" + key + "\""),
                std::string::npos)
          << e.what();
    }
  };
  std::stringstream good(anchor_with("n", "4") + event_with("a", "7"));
  ASSERT_EQ(obs::parse_msg_trace(good).events.at(0).a, 7u);

  const std::vector<std::pair<std::string, std::string>> bad_events = {
      {"t_us", "abc"},        {"t_us", "12junk"},
      {"t_us", "-5"},         {"t_us", R"("12")"},
      {"seq", "-7"},          {"seq", "4294967296"},
      {"node", "99999999999"}, {"node", "4294967295"},
      {"peer", "-2"},         {"origin", "+3"},
      {"a", "-1"},            {"a", "18446744073709551616"},
  };
  for (const auto& [key, value] : bad_events) {
    expect_rejected(anchor_with("n", "4") + event_with(key, value), key);
  }
  const std::vector<std::pair<std::string, std::string>> bad_anchors = {
      {"node", "x"},           {"n", "zz"},
      {"n", "-1"},             {"anchor_env_us", "1e6"},
      {"anchor_unix_us", "-3"},
  };
  for (const auto& [key, value] : bad_anchors) {
    expect_rejected(anchor_with(key, value), key);
  }
}

TEST(MsgTraceJsonl, EventKindNamesRoundTrip) {
  for (std::size_t i = 0; i < obs::kMsgEventKindCount; ++i) {
    auto kind = static_cast<MsgEventKind>(i);
    MsgEventKind back{};
    ASSERT_TRUE(obs::msg_event_from_name(obs::msg_event_name(kind), back));
    EXPECT_EQ(back, kind);
  }
  MsgEventKind unused{};
  EXPECT_FALSE(obs::msg_event_from_name("warp_drive", unused));
}

// ---------------------------------------------------------------------------
// Merge: clock alignment
// ---------------------------------------------------------------------------

obs::ParsedMsgTrace wall_trace(NodeId node, des::SimTime anchor_env,
                               std::uint64_t anchor_unix,
                               std::vector<obs::MsgEvent> events) {
  obs::ParsedMsgTrace t;
  t.anchor.node = node;
  t.anchor.n = 2;
  t.anchor.wall_clock = true;
  t.anchor.anchor_env = anchor_env;
  t.anchor.anchor_unix_us = anchor_unix;
  t.events = std::move(events);
  return t;
}

TEST(MsgTraceMerge, AlignsWallClocksThroughTheAnchors) {
  // Node 0 booted 1 wall-second before node 1: both anchors were taken
  // at wall 5'000'000'000 us, where node 0's env clock already read 1e6
  // but node 1's read 0. An event at env 2e6 on node 0 and one at env
  // 1'000'100 on node 1 are therefore 100 us apart in wall time.
  auto a = wall_trace(0, 1'000'000, 5'000'000'000ull,
                      {{2'000'000, MsgEventKind::kBroadcast, 0, kInvalidNode,
                        0, 1}});
  auto b = wall_trace(1, 0, 5'000'000'000ull,
                      {{1'000'100, MsgEventKind::kFirstHeard, 1, 0, 0, 1}});
  obs::MergedMsgTrace merged = obs::merge_msg_traces({a, b});
  EXPECT_TRUE(merged.wall_clock);
  ASSERT_EQ(merged.events.size(), 2u);
  EXPECT_EQ(merged.events[0].node, 0u);
  EXPECT_EQ(merged.events[0].at, 0u) << "rebased to the earliest event";
  EXPECT_EQ(merged.events[1].at, 100u);
  EXPECT_EQ(merged.n, 2u);
}

TEST(MsgTraceMerge, MixedClockBasesThrow) {
  auto wall = wall_trace(0, 0, 5'000'000'000ull,
                         {{10, MsgEventKind::kBroadcast, 0, kInvalidNode, 0,
                           0}});
  obs::ParsedMsgTrace sim;  // default anchor: sim clock
  sim.anchor.node = 1;
  sim.events.push_back({20, MsgEventKind::kFirstHeard, 1, 0, 0, 0});
  EXPECT_THROW((void)obs::merge_msg_traces({wall, sim}),
               std::invalid_argument);
  EXPECT_THROW((void)obs::merge_msg_traces({}), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// DAG completeness under lost parent traces
// ---------------------------------------------------------------------------

// A SIGKILLed daemon loses its trace, but it may have relayed messages
// before dying: survivors' first_heard events name it as the link-layer
// sender, while its own surviving record of the message is only the
// post-respawn sync pull *from one of those survivors*. Naive BFS from
// the origin never enters that parent↔child loop; the unknown-latency
// edge must self-ground (the child's verified hearing attests the
// parent had the message).
TEST(MsgTraceDag, AmnesiacRelayParentStillGroundsTheDag) {
  obs::ParsedMsgTrace t;  // default anchor: whole-fleet sim-clock trace
  t.anchor.n = 4;
  t.events = {
      {100, MsgEventKind::kBroadcast, 0, kInvalidNode, 0, 5},
      {200, MsgEventKind::kFirstHeard, 1, 0, 0, 5},
      {210, MsgEventKind::kDelivered, 1, 0, 0, 5},
      // Node 2 heard from node 3 pre-crash; node 3's own acquisition
      // record died unflushed, so its earliest surviving have-event is
      // the sync pull below — *after* this hop.
      {300, MsgEventKind::kFirstHeard, 2, 3, 0, 5},
      {310, MsgEventKind::kDelivered, 2, 3, 0, 5},
      {9000, MsgEventKind::kSyncPulled, 3, 2, 0, 5},
      {9010, MsgEventKind::kDelivered, 3, 2, 0, 5},
      // Control message: a delivery with no hearing event at all keeps
      // reporting INCOMPLETE — self-grounding is per-edge, not blanket.
      {100, MsgEventKind::kBroadcast, 0, kInvalidNode, 0, 6},
      {400, MsgEventKind::kDelivered, 1, kInvalidNode, 0, 6},
  };
  std::vector<obs::MsgDag> dags =
      obs::build_dags(obs::merge_msg_traces({t}));
  ASSERT_EQ(dags.size(), 2u);

  const obs::MsgDag& dag = dags[0];
  EXPECT_EQ(dag.seq, 5u);
  EXPECT_TRUE(dag.complete);
  EXPECT_EQ(dag.delivered, (std::vector<NodeId>{0, 1, 2, 3}));
  ASSERT_EQ(dag.edges.size(), 3u);
  EXPECT_EQ(dag.edges[1].from, 3u);
  EXPECT_EQ(dag.edges[1].to, 2u);
  EXPECT_EQ(dag.edges[1].latency_us, -1) << "parent acquisition unknown";
  EXPECT_EQ(dag.edges[2].from, 2u);
  EXPECT_EQ(dag.edges[2].to, 3u);
  EXPECT_TRUE(dag.edges[2].sync);
  EXPECT_GE(dag.edges[2].latency_us, 0) << "survivor's have-time is known";

  EXPECT_EQ(dags[1].seq, 6u);
  EXPECT_FALSE(dags[1].complete);
}

// Wire corruption can flip bytes inside the origin/seq fields, so a
// rejection lands under a phantom id no one ever broadcast (e.g. origin
// 256 in a 6-node fleet). Such rejected-only ids must not produce DAGs
// — they'd read as permanently-incomplete messages.
TEST(MsgTraceDag, RejectedOnlyPhantomIdsYieldNoDag) {
  obs::ParsedMsgTrace t;
  t.anchor.n = 2;
  t.events = {
      {100, MsgEventKind::kBroadcast, 0, kInvalidNode, 0, 0},
      {200, MsgEventKind::kFirstHeard, 1, 0, 0, 0},
      {210, MsgEventKind::kDelivered, 1, 0, 0, 0},
      {150, MsgEventKind::kRejected, 1, kInvalidNode, 256, 7},
  };
  std::vector<obs::MsgDag> dags =
      obs::build_dags(obs::merge_msg_traces({t}));
  ASSERT_EQ(dags.size(), 1u) << "phantom (256,7) must be skipped";
  EXPECT_EQ(dags[0].origin, 0u);
  EXPECT_TRUE(dags[0].complete);
}

// ---------------------------------------------------------------------------
// DES scenarios: non-perturbation, determinism, DAG reconstruction
// ---------------------------------------------------------------------------

sim::ScenarioConfig traced_scenario(std::uint64_t seed) {
  sim::ScenarioConfig config;
  config.seed = seed;
  config.n = 9;
  config.area = {240, 240};
  config.tx_range = 120;
  config.placement = sim::PlacementKind::kGrid;
  config.num_broadcasts = 6;
  config.broadcast_interval = des::millis(500);
  config.payload_bytes = 64;
  config.warmup = des::seconds(6);
  config.cooldown = des::seconds(10);
  return config;
}

TEST(MsgTraceScenario, TracingObservesWithoutPerturbing) {
  sim::ScenarioConfig config = traced_scenario(3);

  sim::Network off(config);
  std::string snap_off = stats::snapshot(sim::run_workload(off).metrics);
  std::size_t events_off = off.simulator().events_executed();
  EXPECT_TRUE(off.msg_trace().empty()) << "trace-off run recorded events";

  config.enable_msg_trace = true;
  sim::Network on(config);
  std::string snap_on = stats::snapshot(sim::run_workload(on).metrics);
  EXPECT_EQ(snap_off, snap_on);
  EXPECT_EQ(events_off, on.simulator().events_executed())
      << "the recorder changed the event order";
  EXPECT_FALSE(on.msg_trace().empty());
}

TEST(MsgTraceScenario, SameSeedGivesByteIdenticalMergedTrace) {
  sim::ScenarioConfig config = traced_scenario(5);
  config.enable_msg_trace = true;

  auto run_to_merged_json = [&] {
    sim::Network network(config);
    (void)sim::run_workload(network);
    std::stringstream jsonl;
    network.msg_trace().write_jsonl(jsonl);
    obs::MergedMsgTrace merged =
        obs::merge_msg_traces({obs::parse_msg_trace(jsonl)});
    std::stringstream out;
    obs::write_merged_json(out, merged, obs::build_dags(merged));
    return out.str();
  };

  std::string a = run_to_merged_json();
  std::string b = run_to_merged_json();
  EXPECT_FALSE(a.empty());
  EXPECT_EQ(a, b);
}

TEST(MsgTraceScenario, DagsAreCompleteOnACleanRun) {
  sim::ScenarioConfig config = traced_scenario(7);
  config.enable_msg_trace = true;
  sim::Network network(config);
  sim::RunResult result = sim::run_workload(network);
  ASSERT_DOUBLE_EQ(result.metrics.delivery_ratio(), 1.0)
      << "scenario must fully deliver for the completeness assertion";

  std::stringstream jsonl;
  network.msg_trace().write_jsonl(jsonl);
  obs::MergedMsgTrace merged =
      obs::merge_msg_traces({obs::parse_msg_trace(jsonl)});
  std::vector<obs::MsgDag> dags = obs::build_dags(merged);
  ASSERT_EQ(dags.size(), config.num_broadcasts);

  for (const obs::MsgDag& dag : dags) {
    EXPECT_TRUE(dag.have_root);
    EXPECT_TRUE(dag.complete)
        << "msg (" << dag.origin << "," << dag.seq << ") has orphan hops";
    EXPECT_EQ(dag.delivered.size(), config.n);
    EXPECT_TRUE(dag.stalled.empty());
    // One first-hop edge per non-origin node, each with a resolvable
    // parent latency (the whole fleet is in one trace).
    EXPECT_EQ(dag.edges.size(), config.n - 1);
    for (const obs::HopEdge& e : dag.edges) {
      EXPECT_NE(e.from, kInvalidNode);
      EXPECT_GE(e.latency_us, 0);
      EXPECT_FALSE(e.sync);
    }
    // Coverage starts at the origin's broadcast and grows to the fleet.
    ASSERT_FALSE(dag.coverage.empty());
    EXPECT_EQ(dag.coverage.front().covered, 1u);
    EXPECT_EQ(dag.coverage.back().covered, config.n);
    // Simultaneous deliveries coalesce into one point, so covered grows
    // strictly but not necessarily by one.
    for (std::size_t i = 1; i < dag.coverage.size(); ++i) {
      EXPECT_GE(dag.coverage[i].at, dag.coverage[i - 1].at);
      EXPECT_GT(dag.coverage[i].covered, dag.coverage[i - 1].covered);
    }
  }
}

TEST(MsgTraceScenario, SampledFleetStillYieldsCompleteDags) {
  sim::ScenarioConfig config = traced_scenario(11);
  config.enable_msg_trace = true;
  config.msg_trace.sample_every = 2;
  sim::Network network(config);
  (void)sim::run_workload(network);

  std::stringstream jsonl;
  network.msg_trace().write_jsonl(jsonl);
  obs::MergedMsgTrace merged =
      obs::merge_msg_traces({obs::parse_msg_trace(jsonl)});
  std::vector<obs::MsgDag> dags = obs::build_dags(merged);
  ASSERT_FALSE(dags.empty());
  ASSERT_LT(dags.size(), config.num_broadcasts)
      << "sampling at 1/2 kept every message";
  for (const obs::MsgDag& dag : dags) {
    EXPECT_TRUE(dag.complete)
        << "a sampled message must still be traced by EVERY node";
    EXPECT_EQ(dag.delivered.size(), config.n);
  }
}

TEST(MsgTraceScenario, CrashRecoveryShowsTheRangeSyncCatchUpEdge) {
  // The sync_test catch-up scenario, now observed through the tracer: a
  // node crashes before the workload, misses everything, recovers and
  // pulls the backlog through range-sync. Its DAG entries must arrive
  // over sync=true edges and the DAGs must still be complete.
  sim::ScenarioConfig config = traced_scenario(7);
  config.enable_msg_trace = true;
  config.protocol_config.sync.enabled = true;
  config.protocol_config.anti_entropy = false;
  const NodeId crashed = 4;
  config.fault_schedule.events.push_back(
      {des::millis(6100), sim::FaultKind::kCrashStop, crashed, 0, {}});
  config.fault_schedule.events.push_back(
      {des::seconds(10), sim::FaultKind::kCrashRecover, crashed, 0, {}});

  sim::Network network(config);
  sim::RunResult result = sim::run_workload(network);
  ASSERT_EQ(result.metrics.recoveries_completed(), 1u);

  std::stringstream jsonl;
  network.msg_trace().write_jsonl(jsonl);
  obs::MergedMsgTrace merged =
      obs::merge_msg_traces({obs::parse_msg_trace(jsonl)});
  std::vector<obs::MsgDag> dags = obs::build_dags(merged);
  ASSERT_EQ(dags.size(), config.num_broadcasts);

  std::size_t sync_edges = 0;
  for (const obs::MsgDag& dag : dags) {
    EXPECT_TRUE(dag.complete)
        << "msg (" << dag.origin << "," << dag.seq << ")";
    EXPECT_EQ(dag.delivered.size(), config.n) << "catch-up incomplete";
    for (const obs::HopEdge& e : dag.edges) {
      if (e.sync) {
        ++sync_edges;
        EXPECT_EQ(e.to, crashed)
            << "only the recovering node should pull via sync";
      }
    }
  }
  EXPECT_GT(sync_edges, 0u) << "no range-sync catch-up edge was traced";
}

// ---------------------------------------------------------------------------
// Exports
// ---------------------------------------------------------------------------

TEST(MsgTraceExport, MergedJsonCarriesSchemaAndSummary) {
  sim::ScenarioConfig config = traced_scenario(3);
  config.enable_msg_trace = true;
  sim::Network network(config);
  (void)sim::run_workload(network);
  std::stringstream jsonl;
  network.msg_trace().write_jsonl(jsonl);
  obs::MergedMsgTrace merged =
      obs::merge_msg_traces({obs::parse_msg_trace(jsonl)});
  std::stringstream out;
  obs::write_merged_json(out, merged, obs::build_dags(merged));
  const std::string doc = out.str();
  EXPECT_NE(doc.find(obs::kMergedTraceSchema), std::string::npos);
  EXPECT_NE(doc.find("\"summary\""), std::string::npos);
  EXPECT_NE(doc.find("\"hop_latency_us\""), std::string::npos);
  EXPECT_NE(doc.find("\"messages\""), std::string::npos);
}

TEST(MsgTraceExport, ChromeTraceHasProcessesSpansAndFlows) {
  sim::ScenarioConfig config = traced_scenario(3);
  config.enable_msg_trace = true;
  sim::Network network(config);
  (void)sim::run_workload(network);
  std::stringstream jsonl;
  network.msg_trace().write_jsonl(jsonl);
  obs::MergedMsgTrace merged =
      obs::merge_msg_traces({obs::parse_msg_trace(jsonl)});
  std::stringstream out;
  obs::write_chrome_trace(out, merged);
  const std::string doc = out.str();
  EXPECT_NE(doc.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(doc.find("process_name"), std::string::npos);   // "M" metadata
  EXPECT_NE(doc.find("\"ph\":\"X\""), std::string::npos);   // spans
  EXPECT_NE(doc.find("\"ph\":\"s\""), std::string::npos);   // flow starts
  EXPECT_NE(doc.find("\"ph\":\"f\""), std::string::npos);   // flow ends
  EXPECT_EQ(doc.find("\"ts\":-"), std::string::npos)
      << "negative timestamps confuse the catapult viewer";
}

}  // namespace
}  // namespace byzcast
