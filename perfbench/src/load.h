// Seeded open-loop load: Poisson arrivals sent round-robin over the
// origins, each timed from when it was *due*, not from when the
// generator got around to calling broadcast() — so a stall that delays
// later broadcasts is charged to their latency. The program under test
// sees only the resulting broadcast() calls.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "des/time.h"
#include "latency.h"

namespace perfbench {

struct Arrival {
  byzcast::des::SimDuration due = 0;  ///< offset from the load start, µs
  std::size_t origin_slot = 0;        ///< index into the origin list
};

/// `count` arrivals of a Poisson process with the given aggregate rate,
/// origin slots assigned round-robin over `origins`. The first arrival
/// is one exponential gap after the load start. Depends only on its
/// arguments: the same seed gives the same schedule.
std::vector<Arrival> poisson_schedule(std::uint64_t seed, double rate_per_s,
                                      std::size_t count, std::size_t origins);

/// Lateness of each actual broadcast() call against its due time.
class LagRecorder {
 public:
  void record(byzcast::des::SimTime due, byzcast::des::SimTime actual) {
    lag_ms_.push_back(
        (static_cast<double>(actual) - static_cast<double>(due)) / 1e3);
  }
  [[nodiscard]] std::size_t offered() const { return lag_ms_.size(); }
  [[nodiscard]] Percentiles summary() const { return summarize(lag_ms_); }

 private:
  std::vector<double> lag_ms_;
};

}  // namespace perfbench
