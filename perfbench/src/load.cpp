#include "load.h"

#include <cmath>

#include "des/rng.h"

namespace perfbench {

std::vector<Arrival> poisson_schedule(std::uint64_t seed, double rate_per_s,
                                      std::size_t count, std::size_t origins) {
  // A stream of its own, salted so it never coincides with the program's
  // root stream for the same seed.
  byzcast::des::Rng rng(seed ^ 0x6c6f61642d67656eULL);
  const double mean_gap_us = 1e6 / rate_per_s;
  std::vector<Arrival> schedule;
  schedule.reserve(count);
  double at_us = 0;
  for (std::size_t i = 0; i < count; ++i) {
    at_us += rng.exponential(mean_gap_us);
    schedule.push_back(Arrival{static_cast<byzcast::des::SimDuration>(
                                   std::llround(at_us)),
                               origins == 0 ? 0 : i % origins});
  }
  return schedule;
}

}  // namespace perfbench
