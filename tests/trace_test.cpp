// The protocol event recorder as a sequence log (obs/msg_trace.h): the
// text/CSV/JSONL renderers, per-kind counts, and the event structure a
// traced scenario produces — node-scoped events (overlay transitions,
// suspicions) interleaved with the message lifecycle, in sim order.
#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>

#include "obs/msg_trace.h"
#include "sim/runner.h"

namespace byzcast {
namespace {

using obs::MsgEvent;
using obs::MsgEventKind;
using obs::MsgTraceRecorder;

// ---------------------------------------------------------------------------
// Recorder unit tests
// ---------------------------------------------------------------------------

TEST(TraceRecorder, RecordsInOrderAndCounts) {
  MsgTraceRecorder rec;
  EXPECT_TRUE(rec.empty());
  rec.record(10, MsgEventKind::kBroadcast, 1, 1, 0);
  rec.record(20, MsgEventKind::kDelivered, 2, 1, 0);
  rec.record(30, MsgEventKind::kDelivered, 3, 1, 0);
  EXPECT_EQ(rec.events().size(), 3u);
  EXPECT_EQ(rec.count(MsgEventKind::kDelivered), 2u);
  EXPECT_EQ(std::count_if(rec.events().begin(), rec.events().end(),
                          [](const MsgEvent& e) {
                            return e.kind == MsgEventKind::kDelivered &&
                                   e.node == 2;
                          }),
            1);
  EXPECT_EQ(rec.count(MsgEventKind::kSuspect), 0u);
}

TEST(TraceRecorder, CsvAndJsonlExport) {
  MsgTraceRecorder rec;
  rec.record(1500000, MsgEventKind::kDelivered, 4, 1, 0, /*peer=*/2);

  std::ostringstream csv;
  rec.write_csv(csv);
  EXPECT_NE(csv.str().find("t_us,kind,node"), std::string::npos);
  EXPECT_NE(csv.str().find("1500000,delivered,4,2"), std::string::npos);

  std::ostringstream jsonl;
  rec.write_jsonl(jsonl);
  EXPECT_NE(jsonl.str().find("\"kind\":\"delivered\""), std::string::npos);
  EXPECT_NE(jsonl.str().find("\"node\":4"), std::string::npos);

  std::ostringstream text;
  rec.write_text(text);
  EXPECT_NE(text.str().find("delivered"), std::string::npos);
  EXPECT_NE(text.str().find("1.500000s"), std::string::npos);
}

TEST(TraceRecorder, KindNamesAreStable) {
  EXPECT_STREQ(obs::msg_event_name(MsgEventKind::kBroadcast), "broadcast");
  EXPECT_STREQ(obs::msg_event_name(MsgEventKind::kFindIssued), "find_issued");
  EXPECT_STREQ(obs::msg_event_name(MsgEventKind::kBadSignature),
               "bad_signature");
}

// ---------------------------------------------------------------------------
// End-to-end: a traced scenario produces the expected event structure
// ---------------------------------------------------------------------------

TEST(TraceIntegration, ScenarioEmitsCoherentEvents) {
  sim::ScenarioConfig config;
  config.seed = 5;
  config.n = 25;
  config.area = {400, 400};
  config.tx_range = 140;
  config.num_broadcasts = 5;
  config.enable_msg_trace = true;
  sim::Network network(config);
  sim::RunResult result = sim::run_workload(network);
  ASSERT_DOUBLE_EQ(result.metrics.delivery_ratio(), 1.0);

  const MsgTraceRecorder& trace = network.msg_trace();
  // One broadcast event per workload broadcast, from the sender.
  EXPECT_EQ(trace.count(MsgEventKind::kBroadcast), config.num_broadcasts);
  // One delivery per (message, correct non-origin node).
  EXPECT_EQ(trace.count(MsgEventKind::kDelivered),
            config.num_broadcasts * (config.n - 1));
  // The overlay formed: join events exist, and events are time-ordered.
  EXPECT_GT(trace.count(MsgEventKind::kOverlayJoin), 0u);
  des::SimTime prev = 0;
  for (const MsgEvent& e : trace.events()) {
    EXPECT_GE(e.at, prev);
    prev = e.at;
  }
  // Every delivery's (origin, seq) corresponds to a recorded broadcast.
  for (const MsgEvent& e : trace.events()) {
    if (e.kind != MsgEventKind::kDelivered) continue;
    auto b = std::find_if(
        trace.events().begin(), trace.events().end(), [&](const MsgEvent& x) {
          return x.kind == MsgEventKind::kBroadcast && x.origin == e.origin &&
                 x.seq == e.seq;
        });
    ASSERT_NE(b, trace.events().end());
    EXPECT_LE(b->at, e.at);  // cause precedes effect
  }
}

TEST(TraceIntegration, MuteAttackLeavesSuspicionTrail) {
  sim::ScenarioConfig config;
  config.seed = 15;  // connected correct graph AND recovery exercised
  config.n = 30;
  config.tx_range = 130;
  // Sparse so the mute nodes matter (cf. bench_recovery_timeline), but
  // dense enough that a connected placement is drawable.
  config.area = {550, 550};
  config.adversaries = {{byz::AdversaryKind::kMute, 6}};
  config.num_broadcasts = 20;
  config.enable_msg_trace = true;
  sim::Network network(config);
  if (!network.correct_graph_connected()) {
    GTEST_SKIP() << "assumption violated for this seed";
  }
  sim::RunResult result = sim::run_workload(network);
  EXPECT_DOUBLE_EQ(result.metrics.delivery_ratio(), 1.0);

  const MsgTraceRecorder& trace = network.msg_trace();
  // Recovery machinery visibly ran...
  EXPECT_GT(trace.count(MsgEventKind::kRequested), 0u);
  EXPECT_GT(trace.count(MsgEventKind::kRetransmitted), 0u);
  // ...and any suspicion recorded was raised by a correct node against a
  // Byzantine one (no friendly fire in the trail).
  for (const MsgEvent& e : trace.events()) {
    if (e.kind != MsgEventKind::kSuspect) continue;
    EXPECT_EQ(network.kind_of(e.node), byz::AdversaryKind::kNone);
    EXPECT_NE(network.kind_of(e.peer), byz::AdversaryKind::kNone)
        << "correct node " << e.node << " suspected correct node " << e.peer;
  }
}

}  // namespace
}  // namespace byzcast
