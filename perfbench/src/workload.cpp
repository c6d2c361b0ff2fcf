#include "workload.h"

#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <ctime>

#include "util/bytes.h"

namespace perfbench {

using byzcast::obs::ProfileCategory;
using byzcast::stats::MsgKind;

std::uint64_t steady_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

double process_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) / 1e9;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

double median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                : (values[mid - 1] + values[mid]) / 2;
}

Counters Counters::read(const byzcast::stats::Metrics& metrics,
                        const std::vector<byzcast::core::ByzcastNode*>& nodes) {
  Counters c;
  c.frames_sent = metrics.frames_sent();
  c.frames_offered = metrics.frames_offered();
  c.frames_delivered = metrics.frames_delivered();
  c.frames_collided = metrics.frames_collided();
  c.frames_dropped = metrics.frames_dropped();
  for (std::size_t k = 0; k < byzcast::stats::kMsgKindCount; ++k) {
    c.packets[k] = metrics.packets(static_cast<MsgKind>(k));
  }
  c.packet_bytes = metrics.total_packet_bytes();
  c.recovery_bytes = metrics.recovery_bytes();
  c.recovery_packets = metrics.recovery_packets();
  for (const byzcast::core::ByzcastNode* node : nodes) {
    const byzcast::sync::SyncManager* sync = node->sync_manager();
    if (sync == nullptr) continue;
    c.sync_completed += sync->sessions_completed();
    c.sync_failed += sync->sessions_failed();
    c.sync_admitted += sync->messages_admitted();
    c.sync_bytes += sync->bytes_admitted();
  }
  c.buffer_allocs = byzcast::util::BufferStats::allocations.load();
  c.bytes_copied = byzcast::util::BufferStats::bytes_copied.load();
  return c;
}

Counters Counters::minus(const Counters& before) const {
  Counters d = *this;
  d.frames_sent -= before.frames_sent;
  d.frames_offered -= before.frames_offered;
  d.frames_delivered -= before.frames_delivered;
  d.frames_collided -= before.frames_collided;
  d.frames_dropped -= before.frames_dropped;
  for (std::size_t k = 0; k < d.packets.size(); ++k) {
    d.packets[k] -= before.packets[k];
  }
  d.packet_bytes -= before.packet_bytes;
  d.recovery_bytes -= before.recovery_bytes;
  d.recovery_packets -= before.recovery_packets;
  d.sync_completed -= before.sync_completed;
  d.sync_failed -= before.sync_failed;
  d.sync_admitted -= before.sync_admitted;
  d.sync_bytes -= before.sync_bytes;
  d.buffer_allocs -= before.buffer_allocs;
  d.bytes_copied -= before.bytes_copied;
  return d;
}

ProfileTotals ProfileTotals::read() {
  ProfileTotals t;
  for (std::size_t k = 0; k < byzcast::obs::kProfileCategoryCount; ++k) {
    t.stats[k] = byzcast::obs::Profiler::stats(static_cast<ProfileCategory>(k));
  }
  return t;
}

LeafTimes ProfileTotals::leaves() const {
  LeafTimes l;
  l.sign_ms = ms(ProfileCategory::kSignatureSign);
  l.verify_ms = ms(ProfileCategory::kSignatureVerify);
  l.serialize_ms = ms(ProfileCategory::kSerialize);
  l.parse_ms = ms(ProfileCategory::kParse);
  l.fanout_ms = ms(ProfileCategory::kMediumFanout);
  return l;
}

void FleetPeaks::sample(const std::vector<byzcast::core::ByzcastNode*>& nodes) {
  for (const byzcast::core::ByzcastNode* node : nodes) {
    store_max = std::max(store_max, node->store().size());
    pending_requests_max =
        std::max(pending_requests_max, node->pending_request_count());
  }
}

void protocol_layers(const Counters& run, const ProfileTotals& profile,
                     const FleetPeaks& peaks, std::size_t overlay_size,
                     std::uint64_t accepted_pairs, const Ledger& ledger,
                     LayerValues& out) {
  const auto deliveries = static_cast<double>(accepted_pairs);
  const auto count = [&](ProfileCategory c) {
    return static_cast<double>(profile.of(c).count);
  };

  out.set("radio.frames_sent", static_cast<double>(run.frames_sent));
  out.set("radio.offers", static_cast<double>(run.frames_offered));
  out.set("radio.delivered", static_cast<double>(run.frames_delivered));
  out.set("radio.collided", static_cast<double>(run.frames_collided));
  out.set("radio.dropped", static_cast<double>(run.frames_dropped));
  out.set("radio.delivered_share",
          ratio(static_cast<double>(run.frames_delivered),
                static_cast<double>(run.frames_offered)));
  out.set("radio.fanout_ms", ledger.leaves.fanout_ms);
  out.set("radio.fanout_us_per_frame",
          ratio(ledger.leaves.fanout_ms * 1e3,
                count(ProfileCategory::kMediumFanout)));

  out.set("crypto.sign_count", count(ProfileCategory::kSignatureSign));
  out.set("crypto.sign_ms", ledger.leaves.sign_ms);
  out.set("crypto.verify_count", count(ProfileCategory::kSignatureVerify));
  out.set("crypto.verify_ms", ledger.leaves.verify_ms);
  out.set("crypto.verifies_per_delivery",
          ratio(count(ProfileCategory::kSignatureVerify), deliveries));

  out.set("codec.serialize_count", count(ProfileCategory::kSerialize));
  out.set("codec.serialize_ms", ledger.leaves.serialize_ms);
  out.set("codec.parse_count", count(ProfileCategory::kParse));
  out.set("codec.parse_ms", ledger.leaves.parse_ms);
  out.set("codec.parses_per_delivery",
          ratio(count(ProfileCategory::kParse), deliveries));
  out.set("codec.buffer_allocs", static_cast<double>(run.buffer_allocs));
  out.set("codec.bytes_copied", static_cast<double>(run.bytes_copied));

  out.set("node.self_ms", ledger.node_self_ms);
  out.set("node.self_share", ratio(ledger.node_self_ms, ledger.wall_ms));
  out.set("node.pkts_data", static_cast<double>(run.packets_of(MsgKind::kData)));
  out.set("node.pkts_gossip",
          static_cast<double>(run.packets_of(MsgKind::kGossip)));
  out.set("node.pkts_request",
          static_cast<double>(run.packets_of(MsgKind::kRequestMsg)));
  out.set("node.pkts_find",
          static_cast<double>(run.packets_of(MsgKind::kFindMissingMsg)));
  out.set("node.pkts_hello",
          static_cast<double>(run.packets_of(MsgKind::kHello)));
  out.set("node.pkts_sync",
          static_cast<double>(run.packets_of(MsgKind::kFrontier) +
                              run.packets_of(MsgKind::kBulkPull) +
                              run.packets_of(MsgKind::kBulkReply)));
  std::uint64_t packets = 0;
  for (std::uint64_t p : run.packets) packets += p;
  out.set("node.packets_per_delivery",
          ratio(static_cast<double>(packets), deliveries));
  out.set("node.store_max", static_cast<double>(peaks.store_max));
  out.set("node.pending_requests_max",
          static_cast<double>(peaks.pending_requests_max));
  out.set("node.overlay_size", static_cast<double>(overlay_size));

  out.set("recovery.bytes", static_cast<double>(run.recovery_bytes));
  out.set("recovery.packets", static_cast<double>(run.recovery_packets));
  out.set("recovery.bytes_share",
          ratio(static_cast<double>(run.recovery_bytes),
                static_cast<double>(run.packet_bytes)));
  out.set("sync.sessions_completed", static_cast<double>(run.sync_completed));
  out.set("sync.sessions_failed", static_cast<double>(run.sync_failed));
  out.set("sync.messages_admitted", static_cast<double>(run.sync_admitted));
  out.set("sync.bytes_admitted", static_cast<double>(run.sync_bytes));
}

void check_ledger(const Ledger& l, Report& report) {
  char line[512];
  std::snprintf(line, sizeof(line),
                "ledger: queue_self %.3f + idle %.3f + rx_path %.3f + send "
                "%.3f + fanout %.3f + sign %.3f + verify %.3f + serialize "
                "%.3f + parse %.3f + node_self %.3f = %.3f ms; wall %.3f ms",
                l.queue_self_ms, l.idle_ms, l.rx_path_ms, l.send_ms,
                l.leaves.fanout_ms, l.leaves.sign_ms, l.leaves.verify_ms,
                l.leaves.serialize_ms, l.leaves.parse_ms, l.node_self_ms,
                l.sum(), l.wall_ms);
  report.note(line);
  if (std::fabs(l.sum() - l.wall_ms) > 1e-6 * std::max(1.0, l.wall_ms)) {
    report.fail("ledger self times do not sum to the traced wall time");
  }
}

}  // namespace perfbench

namespace perfbench {

void release_heap() { malloc_trim(0); }

void report_end_to_end(const std::vector<SubRun>& runs, Report& report) {
  std::vector<double> setup_s;
  std::vector<double> node_s_per_s;
  std::vector<double> cpu_us_per_delivery;
  std::vector<MessageRecord> messages;
  for (const SubRun& r : runs) {
    setup_s.insert(setup_s.end(), r.setup_s.begin(), r.setup_s.end());
    node_s_per_s.push_back(r.node_s_per_s);
    const std::uint64_t delivered = delivery_latency(r.messages).accepted_pairs;
    cpu_us_per_delivery.push_back(
        r.cpu_s * 1e6 /
        static_cast<double>(std::max<std::uint64_t>(delivered, 1)));
    messages.insert(messages.end(), r.messages.begin(), r.messages.end());
  }
  const DeliveryLatency d = delivery_latency(messages);
  const std::string of = "median of " + std::to_string(runs.size());
  report.metric("setup_s", median(setup_s), "s",
                "median of " + std::to_string(setup_s.size()) + " builds");
  report.metric("sim_node_s_per_s", median(node_s_per_s), "node-s/s", of);
  report.metric("cpu_us_per_delivery", median(cpu_us_per_delivery), "us",
                of + ", deliveries=" + std::to_string(d.accepted_pairs));
  // The p99s stay out of the result: on the live fleet they follow the
  // host's scheduling noise far more than the program (README.md).
  report.percentile("accept_p50_ms", d.accept.p50, d.accept);
  report.percentile("accept_p99_ms", d.accept.p99, d.accept, false);
  report.percentile("full_p50_ms", d.full.p50, d.full);
  report.percentile("full_p99_ms", d.full.p99, d.full, false);
  report.metric("peak_rss_mb", peak_rss_mb(), "MB");
  report_delivery(d.expected_pairs, d.accepted_pairs, report);
}

void report_delivery(std::uint64_t expected_pairs,
                     std::uint64_t accepted_pairs, Report& report) {
  const std::uint64_t missing = expected_pairs - accepted_pairs;
  report.set_operations(expected_pairs, missing);
  report.note("undelivered_ratio = " +
              json_number(ratio(static_cast<double>(missing),
                                static_cast<double>(expected_pairs))) +
              " (" + std::to_string(missing) + " of " +
              std::to_string(expected_pairs) +
              " expected pairs never accepted)");
}

}  // namespace perfbench
