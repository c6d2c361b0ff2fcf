// Sim-time telemetry sampler (DESIGN.md §10).
//
// A Timeline buckets the run into fixed sim-time intervals: each tick
// records the channel counter *deltas* since the previous tick
// (frames/bytes offered, delivered, collided, dropped — read from the
// run's stats::Metrics) plus the current value of every registered
// gauge (obs/gauge.h). The result answers "when did the channel
// saturate" and "when did TRUST converge" — questions end-of-run
// aggregates cannot.
//
// Determinism: samples are taken by a DES timer, so they sit at fixed
// positions in the deterministic event order; gauge columns are polled
// in registration order; snapshot() formats with fixed-width printf.
// Two runs of the same (ScenarioConfig, seed) therefore produce
// byte-identical snapshots at any sweep --threads value (each replica
// is single-threaded; the engine only moves whole replicas across
// workers). The sampler is opt-in (ScenarioConfig::telemetry_interval);
// when disabled no timer is ever scheduled, keeping default runs
// event-for-event identical to pre-obs builds.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "net/env.h"
#include "net/timer.h"
#include "obs/gauge.h"
#include "stats/metrics.h"

namespace byzcast::obs {

/// One gauge column: `source` is the registration label ("node3"),
/// `gauge` the name the source emitted ("store_size").
struct TimelineColumn {
  std::string source;
  std::string gauge;
};

/// One sampling tick. Channel counters are deltas over (previous tick,
/// this tick]; gauges are instantaneous values, 1:1 with
/// TimelineData::columns.
struct TimelineSample {
  des::SimTime at = 0;
  std::uint64_t frames_offered = 0;
  std::uint64_t frames_delivered = 0;
  std::uint64_t frames_collided = 0;
  std::uint64_t frames_dropped = 0;
  std::uint64_t bytes_offered = 0;
  std::uint64_t bytes_delivered = 0;
  std::uint64_t bytes_collided = 0;
  std::uint64_t bytes_dropped = 0;
  std::vector<std::int64_t> gauges;
};

/// The recorded timeline, detached from the live sampler so RunResult
/// can carry it by value out of the Network.
struct TimelineData {
  des::SimDuration interval = 0;
  std::vector<TimelineColumn> columns;
  std::vector<TimelineSample> samples;

  [[nodiscard]] bool empty() const { return samples.empty(); }
  /// Index of the column labelled `source`.`gauge`, or -1.
  [[nodiscard]] std::ptrdiff_t column_index(std::string_view source,
                                            std::string_view gauge) const;
};

/// Deterministic plain-text dump, snapshot(Metrics)-style: byte-identical
/// across runs of the same (ScenarioConfig, seed) — the determinism
/// regression diffs these across thread counts.
std::string snapshot(const TimelineData& data);

class Timeline {
 public:
  /// `metrics` must outlive the Timeline (both live in the Network). A
  /// zero `interval` throws std::invalid_argument (net::PeriodicTimer).
  Timeline(net::Env& env, const stats::Metrics& metrics,
           des::SimDuration interval);

  /// Registers a gauge source under `label`; polled in registration
  /// order. Call before start(); the source must outlive the Timeline.
  void add_source(std::string label, const GaugeSource& source);

  /// Takes the t=now baseline sample (pinning the column set) and arms
  /// the periodic tick.
  void start();

  /// Records one extra sample at the current sim time unless one already
  /// exists there — the runner calls this once at end of run so the
  /// final partial bucket is not lost and delta sums match the
  /// cumulative Metrics counters.
  void sample_now();

  [[nodiscard]] const TimelineData& data() const { return data_; }

 private:
  void sample();

  net::Env& env_;
  const stats::Metrics& metrics_;
  std::vector<std::string> labels_;
  std::vector<const GaugeSource*> sources_;
  // Cumulative counter values as of the previous sample (delta baseline).
  std::uint64_t prev_[8] = {};
  TimelineData data_;
  net::PeriodicTimer timer_;
};

}  // namespace byzcast::obs
