// The per-layer metrics a traced run prints, in print order. Every traced
// run prints all of them; a layer the workload never exercises reads 0
// (the DES has no sockets, the live fleet no event queue or radio), and
// README.md says which backend measures which metric.
#pragma once

#include <cstddef>
#include <map>
#include <string>

#include "report.h"

namespace perfbench {

struct LayerMetric {
  const char* name;
  const char* unit;
};

inline constexpr LayerMetric kLayerMetrics[] = {
    {"des.events", "count"},
    {"des.events_per_s", "1/s"},
    {"des.dispatch_ms", "ms"},
    {"des.queue_self_ms", "ms"},
    {"des.pending_max", "count"},
    {"radio.frames_sent", "count"},
    {"radio.offers", "count"},
    {"radio.delivered", "count"},
    {"radio.collided", "count"},
    {"radio.dropped", "count"},
    {"radio.delivered_share", "ratio"},
    {"radio.fanout_ms", "ms"},
    {"radio.fanout_us_per_frame", "us"},
    {"crypto.sign_count", "count"},
    {"crypto.sign_ms", "ms"},
    {"crypto.verify_count", "count"},
    {"crypto.verify_ms", "ms"},
    {"crypto.verifies_per_delivery", "count/delivery"},
    {"codec.serialize_count", "count"},
    {"codec.serialize_ms", "ms"},
    {"codec.parse_count", "count"},
    {"codec.parse_ms", "ms"},
    {"codec.parses_per_delivery", "count/delivery"},
    {"codec.buffer_allocs", "count"},
    {"codec.bytes_copied", "B"},
    {"node.self_ms", "ms"},
    {"node.self_share", "ratio"},
    {"node.rx_calls", "count"},
    {"node.rx_ms", "ms"},
    {"node.timer_calls", "count"},
    {"node.timer_ms", "ms"},
    {"node.broadcast_ms", "ms"},
    {"node.pkts_data", "count"},
    {"node.pkts_gossip", "count"},
    {"node.pkts_request", "count"},
    {"node.pkts_find", "count"},
    {"node.pkts_hello", "count"},
    {"node.pkts_sync", "count"},
    {"node.packets_per_delivery", "count/delivery"},
    {"node.store_max", "count"},
    {"node.pending_requests_max", "count"},
    {"node.overlay_size", "count"},
    {"recovery.bytes", "B"},
    {"recovery.packets", "count"},
    {"recovery.bytes_share", "ratio"},
    {"sync.sessions_completed", "count"},
    {"sync.sessions_failed", "count"},
    {"sync.messages_admitted", "count"},
    {"sync.bytes_admitted", "B"},
    {"impair.forwarded", "count"},
    {"impair.dropped", "count"},
    {"net.loop_wall_ms", "ms"},
    {"net.idle_ms", "ms"},
    {"net.rx_path_ms", "ms"},
    {"net.rx_path_us_per_datagram", "us"},
    {"net.send_calls", "count"},
    {"net.send_ms", "ms"},
    {"net.datagrams_sent", "count"},
    {"net.datagrams_received", "count"},
    {"net.datagrams_rejected", "count"},
    {"net.send_errors", "count"},
    {"net.send_retries", "count"},
    {"net.send_drops", "count"},
    {"net.datagrams_per_delivery", "count/delivery"},
    {"load.offered", "count"},
    {"load.gen_lag_p50_ms", "ms"},
    {"load.gen_lag_p99_ms", "ms"},
    {"trace.overhead", "ratio"},
    {"trace.coverage", "ratio"},
};

/// Values collected by one traced run, keyed by metric name.
class LayerValues {
 public:
  /// Throws std::logic_error on a name missing from kLayerMetrics.
  void set(const std::string& name, double value);
  /// Emits every metric of kLayerMetrics in order (0 when never set).
  void emit(Report& report) const;

 private:
  std::map<std::string, double> values_;
};

/// a / b, or 0 when b is 0 (a ratio over a layer that did no work).
inline double ratio(double a, double b) { return b == 0 ? 0.0 : a / b; }

}  // namespace perfbench
