#include "obs/run_report.h"

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <ostream>
#include <sstream>
#include <stdexcept>

#include "obs/profiler.h"
#include "sim/sweep.h"
#include "util/json.h"

namespace byzcast::obs {

namespace {

using util::json_cell;
using util::json_double;

std::string pad(int indent) { return std::string(static_cast<std::size_t>(indent), ' '); }

std::string quoted(const std::string& s) { return util::json_quote(s); }

void write_counter_object(std::ostream& os, const std::string& p,
                          const char* key, std::uint64_t sent,
                          std::uint64_t offered, std::uint64_t delivered,
                          std::uint64_t collided, std::uint64_t dropped) {
  os << p << "\"" << key << "\": {\"sent\": " << sent
     << ", \"offered\": " << offered << ", \"delivered\": " << delivered
     << ", \"collided\": " << collided << ", \"dropped\": " << dropped
     << "}";
}

void write_scenario(std::ostream& os, const sim::ScenarioConfig& config,
                    int indent) {
  const std::string p = pad(indent + 2);
  os << pad(indent) << "\"scenario\": {\n";
  os << p << "\"protocol\": " << quoted(sim::protocol_kind_name(config.protocol))
     << ",\n";
  os << p << "\"seed\": " << config.seed << ",\n";
  os << p << "\"n\": " << config.n << ",\n";
  os << p << "\"byzantine\": " << config.byzantine_count() << ",\n";
  os << p << "\"payload_bytes\": " << config.payload_bytes << ",\n";
  os << p << "\"num_broadcasts\": " << config.num_broadcasts << ",\n";
  os << p << "\"senders\": " << config.senders << ",\n";
  os << p << "\"tx_range\": " << json_double(config.tx_range) << ",\n";
  os << p << "\"area\": [" << json_double(config.area.width) << ", "
     << json_double(config.area.height) << "],\n";
  os << p << "\"telemetry_interval_s\": "
     << json_double(des::to_seconds(config.telemetry_interval)) << "\n";
  os << pad(indent) << "}";
}

void write_result(std::ostream& os, const sim::ScenarioConfig& config,
                  const sim::RunResult& result, int indent) {
  const std::string p = pad(indent + 2);
  os << pad(indent) << "\"result\": {\n";
  os << p << "\"sim_seconds\": " << json_double(result.sim_seconds) << ",\n";
  os << p << "\"availability\": " << json_double(result.availability) << ",\n";
  os << p << "\"correct_count\": " << result.correct_count << ",\n";
  os << p << "\"byzantine_count\": " << result.byzantine_count << ",\n";
  if (config.protocol == sim::ProtocolKind::kByzcast) {
    os << p << "\"overlay\": {\"size_end\": " << result.overlay_size_end
       << ", \"correct_size_end\": " << result.correct_overlay_size_end
       << ", \"healthy_end\": "
       << (result.overlay_healthy_end ? "true" : "false") << "}\n";
  } else {
    os << p << "\"overlay\": null\n";
  }
  os << pad(indent) << "}";
}

void write_latency(std::ostream& os, const char* key,
                   const stats::LatencyRecorder& latency, int indent) {
  const std::string p = pad(indent + 2);
  os << pad(indent) << "\"" << key << "\": {\n";
  os << p << "\"count\": " << latency.count() << ",\n";
  os << p << "\"mean_s\": " << json_double(latency.mean()) << ",\n";
  os << p << "\"p50_s\": " << json_double(latency.percentile(0.5)) << ",\n";
  os << p << "\"p99_s\": " << json_double(latency.percentile(0.99)) << ",\n";
  os << p << "\"max_s\": " << json_double(latency.max()) << ",\n";
  stats::LatencyHistogram hist = latency.histogram();
  os << p << "\"histogram\": {\"upper_bounds_s\": [";
  for (std::size_t i = 0; i < hist.upper_bounds.size(); ++i) {
    if (i > 0) os << ", ";
    os << json_double(hist.upper_bounds[i]);
  }
  os << "], \"counts\": [";
  for (std::size_t i = 0; i < hist.counts.size(); ++i) {
    if (i > 0) os << ", ";
    os << hist.counts[i];
  }
  os << "], \"total\": " << hist.total << "}\n";
  os << pad(indent) << "}";
}

void write_metrics(std::ostream& os, const stats::Metrics& m, int indent) {
  const std::string p = pad(indent + 2);
  os << pad(indent) << "\"metrics\": {\n";
  os << p << "\"broadcasts\": " << m.broadcasts() << ",\n";
  os << p << "\"delivery_ratio\": " << json_double(m.delivery_ratio())
     << ",\n";
  os << p << "\"full_delivery_fraction\": "
     << json_double(m.full_delivery_fraction()) << ",\n";
  os << p << "\"duplicate_accepts\": " << m.duplicate_accepts() << ",\n";
  os << p << "\"unknown_accepts\": " << m.unknown_accepts() << ",\n";
  // On-air catch-up cost (REQUEST/FIND/range-sync packets plus the DATA
  // retransmissions they trigger) — the E16 recovery-bytes column.
  os << p << "\"recovery_bytes\": " << m.recovery_bytes() << ",\n";
  os << p << "\"recovery_packets\": " << m.recovery_packets() << ",\n";
  write_counter_object(os, p, "frames", m.frames_sent(), m.frames_offered(),
                       m.frames_delivered(), m.frames_collided(),
                       m.frames_dropped());
  os << ",\n";
  write_counter_object(os, p, "frame_bytes", m.frame_bytes_sent(),
                       m.frame_bytes_offered(), m.frame_bytes_delivered(),
                       m.frame_bytes_collided(), m.frame_bytes_dropped());
  os << ",\n";
  os << p << "\"packets\": {";
  for (std::size_t i = 0; i < stats::kMsgKindCount; ++i) {
    auto kind = static_cast<stats::MsgKind>(i);
    if (i > 0) os << ", ";
    os << quoted(stats::msg_kind_name(kind)) << ": {\"count\": "
       << m.packets(kind) << ", \"bytes\": " << m.packet_bytes(kind) << "}";
  }
  os << "},\n";
  write_latency(os, "latency", m.latency(), indent + 2);
  os << ",\n";
  write_latency(os, "catchup_latency", m.catchup_latency(), indent + 2);
  os << "\n" << pad(indent) << "}";
}

void write_timeline(std::ostream& os, const TimelineData& timeline,
                    int indent) {
  if (timeline.empty()) {
    os << pad(indent) << "\"timeline\": null";
    return;
  }
  const std::string p = pad(indent + 2);
  os << pad(indent) << "\"timeline\": {\n";
  os << p << "\"interval_s\": "
     << json_double(des::to_seconds(timeline.interval)) << ",\n";
  os << p << "\"columns\": [";
  for (std::size_t i = 0; i < timeline.columns.size(); ++i) {
    if (i > 0) os << ", ";
    os << quoted(timeline.columns[i].source + "." + timeline.columns[i].gauge);
  }
  os << "],\n";
  os << p << "\"samples\": [";
  for (std::size_t i = 0; i < timeline.samples.size(); ++i) {
    const TimelineSample& s = timeline.samples[i];
    if (i > 0) os << ",";
    os << "\n" << p << "  {\"t_s\": " << json_double(des::to_seconds(s.at))
       << ", \"frames\": {\"offered\": " << s.frames_offered
       << ", \"delivered\": " << s.frames_delivered
       << ", \"collided\": " << s.frames_collided
       << ", \"dropped\": " << s.frames_dropped
       << "}, \"bytes\": {\"offered\": " << s.bytes_offered
       << ", \"delivered\": " << s.bytes_delivered
       << ", \"collided\": " << s.bytes_collided
       << ", \"dropped\": " << s.bytes_dropped << "}, \"gauges\": [";
    for (std::size_t g = 0; g < s.gauges.size(); ++g) {
      if (g > 0) os << ", ";
      os << s.gauges[g];
    }
    os << "]}";
  }
  os << "\n" << p << "]\n";
  os << pad(indent) << "}";
}

// Wall-clock numbers: only emitted when the profiler is on, so the
// default report stays a pure function of (ScenarioConfig, seed).
void write_profile(std::ostream& os, int indent) {
  if (!Profiler::enabled()) {
    os << pad(indent) << "\"profile\": null";
    return;
  }
  const std::string p = pad(indent + 2);
  os << pad(indent) << "\"profile\": {\n";
  os << p << "\"categories\": [";
  for (std::size_t i = 0; i < kProfileCategoryCount; ++i) {
    auto cat = static_cast<ProfileCategory>(i);
    Profiler::CategoryStats st = Profiler::stats(cat);
    if (i > 0) os << ",";
    os << "\n" << p << "  {\"name\": " << quoted(profile_category_name(cat))
       << ", \"count\": " << st.count << ", \"total_ns\": " << st.total_ns
       << ", \"max_ns\": " << st.max_ns << "}";
  }
  os << "\n" << p << "]\n";
  os << pad(indent) << "}";
}

void write_net(std::ostream& os, const LiveNetStats* net, int indent) {
  if (net == nullptr) {
    os << pad(indent) << "\"net\": null";
    return;
  }
  const std::string p = pad(indent + 2);
  os << pad(indent) << "\"net\": {\n";
  os << p << "\"datagrams\": {\"sent\": " << net->datagrams_sent
     << ", \"received\": " << net->datagrams_received
     << ", \"rejected\": " << net->datagrams_rejected << "},\n";
  os << p << "\"send\": {\"errors\": " << net->send_errors
     << ", \"retries\": " << net->send_retries
     << ", \"drops\": " << net->send_drops << "},\n";
  os << p << "\"impairment\": {\"dropped\": " << net->impaired_dropped
     << ", \"duplicated\": " << net->impaired_duplicated
     << ", \"reordered\": " << net->impaired_reordered
     << ", \"delayed\": " << net->impaired_delayed
     << ", \"corrupted\": " << net->impaired_corrupted
     << ", \"wire_corrupted\": " << net->wire_corrupted << "},\n";
  os << p << "\"peer_health\": {\"suspect_transitions\": "
     << net->health_suspect_transitions
     << ", \"alive_transitions\": " << net->health_alive_transitions
     << ", \"suspected_at_end\": " << net->health_suspected_at_end << "}\n";
  os << pad(indent) << "}";
}

void write_trace(std::ostream& os, const MsgTraceRecorder* trace,
                 int indent) {
  if (trace == nullptr) {
    os << pad(indent) << "\"trace\": null";
    return;
  }
  const std::string p = pad(indent + 2);
  os << pad(indent) << "\"trace\": {\n";
  os << p << "\"events\": " << trace->events().size() << ",\n";
  os << p << "\"suppressed\": " << trace->suppressed() << ",\n";
  os << p << "\"counts\": {";
  for (std::size_t i = 0; i < kMsgEventKindCount; ++i) {
    auto kind = static_cast<MsgEventKind>(i);
    if (i > 0) os << ", ";
    os << quoted(msg_event_name(kind)) << ": " << trace->count(kind);
  }
  os << "}\n";
  os << pad(indent) << "}";
}

}  // namespace

void write_run_object(std::ostream& os, const sim::ScenarioConfig& config,
                      const sim::RunResult& result,
                      const MsgTraceRecorder* trace, int indent,
                      const LiveNetStats* net) {
  os << pad(indent) << "{\n";
  write_scenario(os, config, indent + 2);
  os << ",\n";
  write_result(os, config, result, indent + 2);
  os << ",\n";
  write_metrics(os, result.metrics, indent + 2);
  os << ",\n";
  write_timeline(os, result.timeline, indent + 2);
  os << ",\n";
  write_profile(os, indent + 2);
  os << ",\n";
  write_trace(os, trace, indent + 2);
  os << ",\n";
  write_net(os, net, indent + 2);
  os << "\n" << pad(indent) << "}";
}

void RunReport::write_json(std::ostream& os) const {
  if (config == nullptr || result == nullptr) {
    throw std::logic_error("RunReport: config and result are required");
  }
  os << "{\n";
  os << "  \"schema\": " << quoted(kRunReportSchema) << ",\n";
  os << "  \"tool\": " << quoted(tool) << ",\n";
  os << "  \"run\":\n";
  write_run_object(os, *config, *result, trace, 4, net);
  os << "\n}\n";
}

std::string RunReport::to_json() const {
  std::ostringstream os;
  write_json(os);
  return os.str();
}

std::size_t write_sweep_reports(const sim::SweepResult& result,
                                const std::string& dir,
                                const std::string& tool) {
  std::filesystem::create_directories(dir);
  std::size_t written = 0;
  for (const sim::SweepPoint& point : result.points) {
    char name[64];
    std::snprintf(name, sizeof(name), "point-%zu-%zu.json", point.axis_index,
                  point.variant_index);
    std::ofstream os(std::filesystem::path(dir) / name,
                     std::ios::binary | std::ios::trunc);
    if (!os) {
      throw std::runtime_error("write_sweep_reports: cannot open " +
                               (std::filesystem::path(dir) / name).string());
    }
    os << "{\n";
    os << "  \"schema\": " << quoted(kSweepReportSchema) << ",\n";
    os << "  \"tool\": " << quoted(tool) << ",\n";
    os << "  \"axis\": " << quoted(result.axis_name) << ",\n";
    os << "  \"axis_value\": " << json_cell(point.axis_value) << ",\n";
    os << "  \"variant_axis\": " << quoted(result.variant_axis) << ",\n";
    os << "  \"variant\": " << quoted(point.variant) << ",\n";
    os << "  \"axis_index\": " << point.axis_index << ",\n";
    os << "  \"variant_index\": " << point.variant_index << ",\n";
    os << "  \"attempts\": " << point.attempts << ",\n";
    os << "  \"feasible\": " << (point.feasible() ? "true" : "false")
       << ",\n";
    os << "  \"seeds\": [";
    for (std::size_t i = 0; i < point.seeds.size(); ++i) {
      if (i > 0) os << ", ";
      os << point.seeds[i];
    }
    os << "],\n";
    os << "  \"replicas\": [";
    for (std::size_t i = 0; i < point.replicas.size(); ++i) {
      // point.config carries seed = 0; restore the replica's actual seed
      // so each run object is self-describing.
      sim::ScenarioConfig config = point.config;
      config.seed = point.seeds[i];
      if (i > 0) os << ",";
      os << "\n";
      write_run_object(os, config, point.replicas[i], nullptr, 4);
    }
    os << "\n  ]\n";
    os << "}\n";
    ++written;
  }
  return written;
}

}  // namespace byzcast::obs
