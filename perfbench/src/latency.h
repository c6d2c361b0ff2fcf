// The one delivery-latency definition both backends report through.
//
// A sample is the time from when a message was *due* in the open-loop
// schedule to when a correct receiver accepted it: sim time on the DES,
// loop-clock time on the live fleet. A (message, receiver) pair that was
// never accepted counts as infinitely late, so loss shows up in the tail
// instead of silently shrinking the sample set. Percentiles use the
// nearest-rank rule: the value at 1-based rank ceil(q * N) of the sorted
// samples, so every reported percentile is a sample that occurred.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

namespace perfbench {

inline constexpr double kNeverMs = std::numeric_limits<double>::infinity();

struct Percentiles {
  std::size_t samples = 0;     ///< including never-accepted (infinite) ones
  std::size_t missing = 0;     ///< infinite samples
  double p50 = kNeverMs;
  double p99 = kNeverMs;
  std::size_t beyond_p99 = 0;  ///< samples ranked strictly after p99's rank

  /// The guide's bar for reporting a tail percentile: at least ten
  /// samples lie beyond it.
  [[nodiscard]] bool p99_resolved() const { return beyond_p99 >= 10; }
};

/// 1-based nearest rank of quantile q (0 < q <= 1) among n samples.
std::size_t nearest_rank(double q, std::size_t n);

/// p50/p99 of `samples` by nearest rank; an empty set has no percentiles
/// (both stay infinite, samples == 0).
Percentiles summarize(std::vector<double> samples);

/// One broadcast as either backend saw it: its due time and, for every
/// correct receiver other than the origin, the accept time (kNeverMs when
/// the pair was never accepted). Times are milliseconds on one clock.
struct MessageRecord {
  double due_ms = 0;
  std::vector<double> accept_ms;
};

struct DeliveryLatency {
  Percentiles accept;  ///< per (message, receiver) pair
  Percentiles full;    ///< per message, until its last receiver accepted
  std::uint64_t expected_pairs = 0;
  std::uint64_t accepted_pairs = 0;
};

DeliveryLatency delivery_latency(const std::vector<MessageRecord>& messages);

}  // namespace perfbench
