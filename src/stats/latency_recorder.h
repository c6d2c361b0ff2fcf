// Latency sample aggregation (mean / percentiles / fixed-bucket histogram).
#pragma once

#include <array>
#include <cstdint>
#include <vector>

namespace byzcast::stats {

/// Inclusive upper bucket edges (seconds) of LatencyRecorder::histogram(),
/// a 1-2-5 ladder from 1 ms to 50 s. Fixed so histograms from different
/// runs (and different builds) are directly comparable; an implicit
/// overflow bucket catches everything above the last edge.
inline constexpr std::array<double, 15> kLatencyHistogramEdges = {
    0.001, 0.002, 0.005, 0.01, 0.02, 0.05, 0.1, 0.2,
    0.5,   1.0,   2.0,   5.0,  10.0, 20.0, 50.0};

/// Bucketed sample counts: counts[i] holds samples in
/// (edges[i-1], edges[i]] (first bucket: [anything, edges[0]]); the last
/// entry is the overflow bucket, so counts.size() == edges.size() + 1.
struct LatencyHistogram {
  std::vector<double> upper_bounds;   ///< = kLatencyHistogramEdges
  std::vector<std::uint64_t> counts;  ///< upper_bounds.size() + 1 entries
  std::uint64_t total = 0;            ///< sum of counts
};

class LatencyRecorder {
 public:
  void record(double seconds) { samples_.push_back(seconds); }

  [[nodiscard]] std::size_t count() const { return samples_.size(); }
  [[nodiscard]] bool empty() const { return samples_.empty(); }
  /// Mean over the sorted samples, so the value does not depend on the
  /// order samples were recorded in (floating-point addition is not
  /// associative).
  [[nodiscard]] double mean() const;
  /// q in [0,1]; nearest-rank on the sorted samples. 0 when empty.
  [[nodiscard]] double percentile(double q) const;
  [[nodiscard]] double max() const;
  /// Buckets every sample over kLatencyHistogramEdges. Insertion-order
  /// independent like the other summaries (bucketing commutes).
  [[nodiscard]] LatencyHistogram histogram() const;

 private:
  // Sorted lazily by the summary accessors; kept simple because summaries
  // run once per experiment, not in the event loop.
  mutable std::vector<double> samples_;
};

}  // namespace byzcast::stats
