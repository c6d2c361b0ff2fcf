#include "layers.h"

#include <stdexcept>

namespace perfbench {

void LayerValues::set(const std::string& name, double value) {
  for (const LayerMetric& m : kLayerMetrics) {
    if (name == m.name) {
      values_[name] = value;
      return;
    }
  }
  throw std::logic_error("unknown per-layer metric: " + name);
}

void LayerValues::emit(Report& report) const {
  for (const LayerMetric& m : kLayerMetrics) {
    auto it = values_.find(m.name);
    report.metric(m.name, it == values_.end() ? 0.0 : it->second, m.unit);
  }
}

}  // namespace perfbench
