// Tests for the parallel sweep engine (sim::SweepSpec / sim::SweepRunner)
// and its statistics layer. The load-bearing property is determinism by
// construction: a sweep's emitted bytes must not depend on the worker
// thread count, because results are keyed by (point, seed) and reduced in
// a fixed order (DESIGN.md §9).
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "sim/sweep.h"
#include "stats/metrics.h"
#include "stats/summary.h"

namespace byzcast {
namespace {

// --- stats::Summary ---------------------------------------------------------

TEST(Summary, MatchesHandComputedFixture) {
  // Fixture: {2, 4, 4, 4, 5, 5, 7, 9} — textbook sample with mean 5,
  // population variance 4, sample (n-1) variance 32/7.
  stats::Summary s;
  for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(v);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_DOUBLE_EQ(s.sum(), 40.0);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  double expected_stddev = std::sqrt(32.0 / 7.0);
  EXPECT_NEAR(s.stddev(), expected_stddev, 1e-12);
  EXPECT_NEAR(s.ci95(), 1.96 * expected_stddev / std::sqrt(8.0), 1e-12);
}

TEST(Summary, DegenerateCounts) {
  stats::Summary empty;
  EXPECT_EQ(empty.count(), 0u);
  EXPECT_EQ(empty.mean(), 0.0);
  EXPECT_EQ(empty.stddev(), 0.0);
  EXPECT_EQ(empty.ci95(), 0.0);

  stats::Summary one;
  one.add(3.5);
  EXPECT_DOUBLE_EQ(one.mean(), 3.5);
  EXPECT_EQ(one.stddev(), 0.0);  // n-1 undefined -> 0
  EXPECT_EQ(one.ci95(), 0.0);
}

// --- seed derivation --------------------------------------------------------

TEST(ReplicaSeed, PinnedValues) {
  // Pinned so an accidental change to the derivation (which would silently
  // re-run every experiment on different topologies) fails loudly.
  EXPECT_EQ(sim::replica_seed(1000, 0, 0), 5998232818650842836ull);
  EXPECT_EQ(sim::replica_seed(1000, 0, 1), 5998232818650842837ull);
  EXPECT_EQ(sim::replica_seed(1000, 1, 0), 17220130549628844285ull);
  EXPECT_EQ(sim::replica_seed(42, 3, 7), 13469799137962766350ull);
}

TEST(ReplicaSeed, AttemptsAreContiguousAndAxesDecorrelated) {
  // Attempts advance by +1 (the resample rule scans forward); different
  // axis indices land in unrelated regions of seed space.
  for (std::size_t a = 0; a < 4; ++a) {
    EXPECT_EQ(sim::replica_seed(7, a, 12), sim::replica_seed(7, a, 11) + 1);
  }
  EXPECT_NE(sim::replica_seed(7, 0, 0), sim::replica_seed(7, 1, 0));
  EXPECT_NE(sim::replica_seed(7, 1, 0), sim::replica_seed(7, 2, 0));
}

// --- the sweep fixture ------------------------------------------------------

/// Small but non-trivial sweep: 2 axis values x 2 variants x 3 replicas,
/// on a network big enough that per-replica results differ.
sim::SweepSpec small_spec() {
  sim::ScenarioConfig base;
  base.n = 16;
  base.tx_range = 120;
  base.area = {300, 300};
  base.num_broadcasts = 4;
  base.warmup = des::seconds(3);
  base.cooldown = des::seconds(4);

  sim::SweepSpec spec;
  spec.base(base).axis("n").replicas(3).seed_base(5000);
  for (std::size_t n : {12u, 16u}) {
    spec.value(static_cast<std::int64_t>(n),
               [n](sim::ScenarioConfig& c) { c.n = n; });
  }
  spec.variant("byzcast", [](sim::ScenarioConfig&) {})
      .variant("flooding", [](sim::ScenarioConfig& c) {
        c.protocol = sim::ProtocolKind::kFlooding;
      });
  return spec;
}

std::vector<sim::MetricSpec> small_metrics() {
  return {sim::sweep_metrics::delivery().with_ci(),
          sim::sweep_metrics::latency_mean_ms(),
          sim::sweep_metrics::total_pkts_per_bcast()};
}

// The tentpole guarantee: any thread count emits the same bytes.
TEST(SweepRunner, ThreadCountCannotChangeEmittedBytes) {
  sim::SweepResult serial = sim::run_sweep(small_spec(), 1);
  sim::SweepResult parallel = sim::run_sweep(small_spec(), 8);

  EXPECT_EQ(serial.to_json(small_metrics()), parallel.to_json(small_metrics()));

  std::ostringstream table_serial, table_parallel;
  serial.to_table(small_metrics()).print_csv(table_serial);
  parallel.to_table(small_metrics()).print_csv(table_parallel);
  EXPECT_EQ(table_serial.str(), table_parallel.str());
}

TEST(SweepRunner, PointGridAndSeedsAreAsDeclared) {
  sim::SweepResult result = sim::run_sweep(small_spec(), 4);
  ASSERT_EQ(result.points.size(), 4u);  // 2 values x 2 variants
  EXPECT_EQ(result.axis_name, "n");
  EXPECT_EQ(result.variant_axis, "protocol");

  for (const sim::SweepPoint& point : result.points) {
    ASSERT_TRUE(point.feasible());
    ASSERT_EQ(point.replicas.size(), 3u);
    ASSERT_EQ(point.seeds.size(), 3u);
  }
  // Variants at the same axis value run on the same seeds (paired
  // comparison on identical topologies); distinct axis values do not.
  EXPECT_EQ(result.points[0].seeds, result.points[1].seeds);
  EXPECT_EQ(result.points[2].seeds, result.points[3].seeds);
  EXPECT_NE(result.points[0].seeds, result.points[2].seeds);
}

TEST(SweepRunner, SummariesMatchPerReplicaRecomputation) {
  sim::SweepResult result = sim::run_sweep(small_spec(), 2);
  sim::MetricSpec delivery = sim::sweep_metrics::delivery();
  for (const sim::SweepPoint& point : result.points) {
    stats::Summary by_hand;
    for (std::size_t i = 0; i < point.replicas.size(); ++i) {
      sim::ReplicaView view{point.replicas[i], point.config,
                            point.observed[i]};
      by_hand.add(delivery.value(view));
    }
    stats::Summary engine = point.summarize(delivery);
    EXPECT_EQ(engine.count(), by_hand.count());
    EXPECT_DOUBLE_EQ(engine.mean(), by_hand.mean());
    EXPECT_DOUBLE_EQ(engine.ci95(), by_hand.ci95());
  }
}

TEST(SweepRunner, InfeasiblePointsRenderNa) {
  sim::ScenarioConfig base;
  base.n = 10;
  base.tx_range = 100;
  base.area = {900, 900};  // sparse: 8 disjoint backbones cannot exist
  base.num_broadcasts = 1;

  sim::SweepSpec spec;
  spec.base(base).replicas(2).max_resamples(3).seed_base(1);
  spec.variant("impossible", [](sim::ScenarioConfig& c) {
    c.protocol = sim::ProtocolKind::kMultiOverlay;
    c.multi_overlay_count = 8;
  });

  sim::SweepResult result = sim::run_sweep(spec, 2);
  ASSERT_EQ(result.points.size(), 1u);
  EXPECT_FALSE(result.points[0].feasible());
  std::ostringstream os;
  result.to_table({sim::sweep_metrics::delivery()}).print_csv(os);
  EXPECT_NE(os.str().find("n/a"), std::string::npos);
}

TEST(SweepRunner, ObserversFeedObservedMetrics) {
  sim::SweepSpec spec = small_spec();
  spec.replicas(2);
  spec.observe("bcasts", [](sim::Network&, const sim::RunResult& r) {
    return static_cast<double>(r.metrics.broadcasts());
  });
  sim::SweepResult result = sim::run_sweep(spec, 2);
  sim::MetricSpec metric = sim::sweep_metrics::observed("bcasts", 0);
  for (const sim::SweepPoint& point : result.points) {
    ASSERT_TRUE(point.feasible());
    EXPECT_DOUBLE_EQ(point.summarize(metric).mean(),
                     static_cast<double>(point.config.num_broadcasts));
  }
}

}  // namespace
}  // namespace byzcast
