#include "obs/timeline.h"

#include <cinttypes>
#include <cstdio>
#include <stdexcept>

namespace byzcast::obs {

namespace {

/// Collects one sample row; doubles as the column-set recorder on the
/// first poll.
class RowVisitor final : public GaugeVisitor {
 public:
  RowVisitor(TimelineData& data, TimelineSample& sample, bool first)
      : data_(data), sample_(sample), first_(first) {}

  void set_source(const std::string* label) { label_ = label; }

  void gauge(std::string_view name, std::int64_t value) override {
    if (first_) {
      data_.columns.push_back({*label_, std::string(name)});
    } else if (sample_.gauges.size() >= data_.columns.size()) {
      throw std::logic_error("Timeline: gauge set grew after start()");
    }
    sample_.gauges.push_back(value);
  }

 private:
  TimelineData& data_;
  TimelineSample& sample_;
  bool first_;
  const std::string* label_ = nullptr;
};

}  // namespace

std::ptrdiff_t TimelineData::column_index(std::string_view source,
                                          std::string_view gauge) const {
  for (std::size_t i = 0; i < columns.size(); ++i) {
    if (columns[i].source == source && columns[i].gauge == gauge) {
      return static_cast<std::ptrdiff_t>(i);
    }
  }
  return -1;
}

std::string snapshot(const TimelineData& data) {
  std::string out;
  char buf[160];
  auto emit = [&](const char* fmt, auto... args) {
    std::snprintf(buf, sizeof(buf), fmt, args...);
    out += buf;
  };
  emit("timeline interval_us=%" PRIu64 " samples=%zu columns=%zu\n",
       static_cast<std::uint64_t>(data.interval), data.samples.size(),
       data.columns.size());
  for (const TimelineColumn& c : data.columns) {
    emit("column %s.%s\n", c.source.c_str(), c.gauge.c_str());
  }
  for (const TimelineSample& s : data.samples) {
    emit("sample t=%.6f offered=%" PRIu64 " delivered=%" PRIu64
         " collided=%" PRIu64 " dropped=%" PRIu64 " bytes_offered=%" PRIu64
         " bytes_delivered=%" PRIu64 " bytes_collided=%" PRIu64
         " bytes_dropped=%" PRIu64 " gauges=",
         des::to_seconds(s.at), s.frames_offered, s.frames_delivered,
         s.frames_collided, s.frames_dropped, s.bytes_offered,
         s.bytes_delivered, s.bytes_collided, s.bytes_dropped);
    for (std::size_t i = 0; i < s.gauges.size(); ++i) {
      emit(i == 0 ? "%" PRId64 : ",%" PRId64, s.gauges[i]);
    }
    out += '\n';
  }
  return out;
}

Timeline::Timeline(net::Env& env, const stats::Metrics& metrics,
                   des::SimDuration interval)
    : env_(env), metrics_(metrics), timer_(env, interval, [this] { sample(); }) {
  data_.interval = interval;
}

void Timeline::add_source(std::string label, const GaugeSource& source) {
  if (!data_.samples.empty()) {
    throw std::logic_error("Timeline: add_source after start()");
  }
  labels_.push_back(std::move(label));
  sources_.push_back(&source);
}

void Timeline::start() {
  sample();  // t=now baseline; pins the column set
  timer_.start();
}

void Timeline::sample_now() {
  if (!data_.samples.empty() && data_.samples.back().at == env_.now()) return;
  sample();
}

void Timeline::sample() {
  TimelineSample s;
  s.at = env_.now();
  const std::uint64_t cur[8] = {
      metrics_.frames_offered(),      metrics_.frames_delivered(),
      metrics_.frames_collided(),     metrics_.frames_dropped(),
      metrics_.frame_bytes_offered(), metrics_.frame_bytes_delivered(),
      metrics_.frame_bytes_collided(), metrics_.frame_bytes_dropped()};
  s.frames_offered = cur[0] - prev_[0];
  s.frames_delivered = cur[1] - prev_[1];
  s.frames_collided = cur[2] - prev_[2];
  s.frames_dropped = cur[3] - prev_[3];
  s.bytes_offered = cur[4] - prev_[4];
  s.bytes_delivered = cur[5] - prev_[5];
  s.bytes_collided = cur[6] - prev_[6];
  s.bytes_dropped = cur[7] - prev_[7];
  for (std::size_t i = 0; i < 8; ++i) prev_[i] = cur[i];

  const bool first = data_.samples.empty();
  s.gauges.reserve(data_.columns.size());
  RowVisitor visitor(data_, s, first);
  for (std::size_t i = 0; i < sources_.size(); ++i) {
    visitor.set_source(&labels_[i]);
    sources_[i]->poll_gauges(visitor);
  }
  if (!first && s.gauges.size() != data_.columns.size()) {
    throw std::logic_error("Timeline: gauge set shrank after start()");
  }
  data_.samples.push_back(std::move(s));
}

}  // namespace byzcast::obs
