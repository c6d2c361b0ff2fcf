#include "stats/latency_recorder.h"

#include <algorithm>
#include <cmath>
#include <numeric>

namespace byzcast::stats {

double LatencyRecorder::mean() const {
  if (samples_.empty()) return 0;
  std::sort(samples_.begin(), samples_.end());
  return std::accumulate(samples_.begin(), samples_.end(), 0.0) /
         static_cast<double>(samples_.size());
}

double LatencyRecorder::percentile(double q) const {
  if (samples_.empty()) return 0;
  std::sort(samples_.begin(), samples_.end());
  q = std::clamp(q, 0.0, 1.0);
  auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(samples_.size())));
  if (rank > 0) --rank;
  return samples_[std::min(rank, samples_.size() - 1)];
}

double LatencyRecorder::max() const {
  if (samples_.empty()) return 0;
  return *std::max_element(samples_.begin(), samples_.end());
}

LatencyHistogram LatencyRecorder::histogram() const {
  LatencyHistogram h;
  h.upper_bounds.assign(kLatencyHistogramEdges.begin(),
                        kLatencyHistogramEdges.end());
  h.counts.assign(kLatencyHistogramEdges.size() + 1, 0);
  for (double s : samples_) {
    std::size_t bucket = kLatencyHistogramEdges.size();  // overflow
    for (std::size_t i = 0; i < kLatencyHistogramEdges.size(); ++i) {
      if (s <= kLatencyHistogramEdges[i]) {
        bucket = i;
        break;
      }
    }
    ++h.counts[bucket];
  }
  h.total = samples_.size();
  return h;
}

}  // namespace byzcast::stats
