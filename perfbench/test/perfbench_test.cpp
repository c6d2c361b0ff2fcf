// Tests of the benchmark's own arithmetic: the percentile rule, the
// seeded schedule, and the self-time ledger.
#include <gtest/gtest.h>

#include <cmath>
#include <numeric>
#include <vector>

#include "latency.h"
#include "ledger.h"
#include "load.h"
#include "report.h"

namespace perfbench {
namespace {

std::vector<double> one_to(std::size_t n) {
  std::vector<double> v(n);
  std::iota(v.begin(), v.end(), 1.0);
  return v;
}

TEST(Percentiles, NearestRankPicksAnObservedSample) {
  EXPECT_EQ(nearest_rank(0.50, 1), 1u);
  EXPECT_EQ(nearest_rank(0.99, 1), 1u);
  EXPECT_EQ(nearest_rank(0.50, 10), 5u);
  EXPECT_EQ(nearest_rank(0.50, 11), 6u);
  EXPECT_EQ(nearest_rank(0.99, 100), 99u);
  EXPECT_EQ(nearest_rank(0.99, 101), 100u);
  EXPECT_EQ(nearest_rank(0.99, 1000), 990u);
}

TEST(Percentiles, P99IsResolvedOnlyWithTenSamplesBeyondIt) {
  std::vector<double> thousand = one_to(1000);
  std::reverse(thousand.begin(), thousand.end());  // order must not matter
  const Percentiles p = summarize(thousand);
  EXPECT_EQ(p.samples, 1000u);
  EXPECT_EQ(p.p50, 500.0);
  EXPECT_EQ(p.p99, 990.0);
  EXPECT_EQ(p.beyond_p99, 10u);
  EXPECT_TRUE(p.p99_resolved());

  const Percentiles small = summarize(one_to(999));
  EXPECT_EQ(small.p99, 990.0);
  EXPECT_EQ(small.beyond_p99, 9u);
  EXPECT_FALSE(small.p99_resolved());

  const Percentiles five = summarize(one_to(5));
  EXPECT_EQ(five.p99, 5.0);  // nearest rank: the maximum
  EXPECT_EQ(five.beyond_p99, 0u);
}

TEST(Percentiles, MissingSamplesAreInfinitelyLate) {
  std::vector<double> v = one_to(990);
  v.insert(v.end(), 10, kNeverMs);  // 1% never accepted
  Percentiles p = summarize(v);
  EXPECT_EQ(p.missing, 10u);
  EXPECT_EQ(p.p50, 500.0);
  EXPECT_EQ(p.p99, 990.0);  // the tail just reaches the missing ones

  v.push_back(kNeverMs);
  p = summarize(v);
  EXPECT_TRUE(std::isinf(p.p99));
  EXPECT_EQ(p.missing, 11u);

  const Percentiles none = summarize({});
  EXPECT_EQ(none.samples, 0u);
  EXPECT_TRUE(std::isinf(none.p50));
}

TEST(Percentiles, DeliveryLatencyCountsFromDueTimeAndMissingPairs) {
  std::vector<MessageRecord> messages = {
      {100.0, {101.0, 103.0, 102.0}},
      {200.0, {205.0, kNeverMs, 201.0}},
  };
  const DeliveryLatency d = delivery_latency(messages);
  EXPECT_EQ(d.expected_pairs, 6u);
  EXPECT_EQ(d.accepted_pairs, 5u);
  EXPECT_EQ(d.accept.samples, 6u);
  EXPECT_EQ(d.accept.missing, 1u);
  EXPECT_EQ(d.accept.p50, 2.0);  // sorted {1,1,2,3,5,inf}, rank 3
  EXPECT_EQ(d.full.samples, 2u);
  EXPECT_EQ(d.full.p50, 3.0);    // message 1 completes 3 ms after due
  EXPECT_TRUE(std::isinf(d.full.p99));  // message 2 never completes
}

TEST(Schedule, SameSeedSameScheduleOtherSeedOther) {
  const auto a = poisson_schedule(42, 200, 500, 4);
  const auto b = poisson_schedule(42, 200, 500, 4);
  const auto c = poisson_schedule(43, 200, 500, 4);
  ASSERT_EQ(a.size(), 500u);
  bool same = true;
  bool differs = false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    same = same && a[i].due == b[i].due && a[i].origin_slot == b[i].origin_slot;
    differs = differs || a[i].due != c[i].due;
  }
  EXPECT_TRUE(same);
  EXPECT_TRUE(differs);
}

TEST(Schedule, PoissonArrivalsRoundRobinOverOrigins) {
  const auto s = poisson_schedule(7, 100, 4000, 3);
  for (std::size_t i = 0; i < s.size(); ++i) {
    EXPECT_EQ(s[i].origin_slot, i % 3);
    if (i > 0) {
      EXPECT_GE(s[i].due, s[i - 1].due);
    }
  }
  // Mean gap 10 ms at 100/s; 4000 exponential gaps land within ~5%.
  const double mean_gap_us = static_cast<double>(s.back().due) / 4000.0;
  EXPECT_NEAR(mean_gap_us, 10000.0, 500.0);
}

TEST(Schedule, LagIsActualMinusDue) {
  LagRecorder lag;
  lag.record(1000, 1000);
  lag.record(2000, 3500);
  EXPECT_EQ(lag.offered(), 2u);
  const Percentiles p = lag.summary();
  EXPECT_EQ(p.p50, 0.0);
  EXPECT_EQ(p.p99, 1.5);
}

TEST(Ledger, EachChildIsSubtractedExactlyOnce) {
  SpanStack spans;
  spans.open(Span::kRx, 0);          // [0, 100]
  spans.open(Span::kSend, 10);       //   [10, 30]
  spans.open(Span::kTimer, 15);      //     [15, 20] grandchild
  spans.close(20);
  spans.close(30);
  spans.open(Span::kSend, 40);       //   [40, 50]
  spans.close(50);
  spans.close(100);
  spans.open(Span::kBroadcast, 200);  // [200, 230], top level again
  spans.close(230);
  EXPECT_EQ(spans.depth(), 0u);

  EXPECT_EQ(spans.totals(Span::kRx).total_ns, 100u);
  EXPECT_EQ(spans.totals(Span::kRx).self_ns, 70u);  // minus 20 and 10, not 5
  EXPECT_EQ(spans.totals(Span::kSend).calls, 2u);
  EXPECT_EQ(spans.totals(Span::kSend).total_ns, 30u);
  EXPECT_EQ(spans.totals(Span::kSend).self_ns, 25u);
  EXPECT_EQ(spans.totals(Span::kTimer).self_ns, 5u);
  EXPECT_EQ(spans.top_level_ns(), 130u);

  std::uint64_t self = 0;
  for (Span s : {Span::kRx, Span::kTimer, Span::kBroadcast, Span::kSend}) {
    self += spans.totals(s).self_ns;
  }
  EXPECT_EQ(self, spans.top_level_ns());

  spans.reset();
  EXPECT_EQ(spans.top_level_ns(), 0u);
  EXPECT_EQ(spans.totals(Span::kRx).calls, 0u);
  EXPECT_THROW(spans.close(1), std::logic_error);
}

TEST(Ledger, DesLedgerSumsToSliceWall) {
  LeafTimes leaves{1.5, 2.5, 0.75, 0.25, 3.0};
  const Ledger l = des_ledger(20.0, 15.0, leaves);
  EXPECT_DOUBLE_EQ(l.queue_self_ms, 5.0);
  EXPECT_DOUBLE_EQ(l.node_self_ms, 15.0 - 8.0);
  EXPECT_DOUBLE_EQ(l.sum(), 20.0);
}

TEST(Ledger, LiveLedgerSumsToLoopWall) {
  SpanStack spans;
  spans.open(Span::kRx, 0);
  spans.open(Span::kSend, 1'000'000);
  spans.close(3'000'000);  // 2 ms send
  spans.close(6'000'000);  // 6 ms handler
  spans.open(Span::kTimer, 7'000'000);
  spans.close(8'000'000);  // 1 ms timer
  LeafTimes leaves{0.5, 1.0, 0.25, 0.25, 0.0};
  const Ledger l = live_ledger(100.0, 10.0, spans, leaves);
  EXPECT_DOUBLE_EQ(l.idle_ms, 90.0);
  EXPECT_DOUBLE_EQ(l.rx_path_ms, 3.0);  // 10 ms CPU, 7 ms inside spans
  EXPECT_DOUBLE_EQ(l.send_ms, 2.0);
  EXPECT_DOUBLE_EQ(l.node_self_ms, 7.0 - 2.0 - 2.0);
  EXPECT_DOUBLE_EQ(l.sum(), 100.0);
}

TEST(Report, InfinityIsAValidJsonNumber) {
  EXPECT_EQ(json_number(kNeverMs), "1e999");
  EXPECT_EQ(json_number(0.5), "0.5");
}

}  // namespace
}  // namespace perfbench
