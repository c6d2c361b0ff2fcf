#include "latency.h"

#include <algorithm>
#include <cmath>

namespace perfbench {

std::size_t nearest_rank(double q, std::size_t n) {
  if (n == 0) return 0;
  auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(n)));
  return std::clamp<std::size_t>(rank, 1, n);
}

Percentiles summarize(std::vector<double> samples) {
  Percentiles out;
  out.samples = samples.size();
  if (samples.empty()) return out;
  std::sort(samples.begin(), samples.end());
  out.missing = static_cast<std::size_t>(
      std::count(samples.begin(), samples.end(), kNeverMs));
  const std::size_t r50 = nearest_rank(0.50, samples.size());
  const std::size_t r99 = nearest_rank(0.99, samples.size());
  out.p50 = samples[r50 - 1];
  out.p99 = samples[r99 - 1];
  out.beyond_p99 = samples.size() - r99;
  return out;
}

DeliveryLatency delivery_latency(const std::vector<MessageRecord>& messages) {
  DeliveryLatency out;
  std::vector<double> pairs;
  std::vector<double> full;
  full.reserve(messages.size());
  for (const MessageRecord& m : messages) {
    double last = m.due_ms;
    for (double at : m.accept_ms) {
      const double latency = at == kNeverMs ? kNeverMs : at - m.due_ms;
      pairs.push_back(latency);
      ++out.expected_pairs;
      if (at != kNeverMs) ++out.accepted_pairs;
      last = std::max(last, at);
    }
    full.push_back(last == kNeverMs ? kNeverMs : last - m.due_ms);
  }
  out.accept = summarize(std::move(pairs));
  out.full = summarize(std::move(full));
  return out;
}

}  // namespace perfbench
