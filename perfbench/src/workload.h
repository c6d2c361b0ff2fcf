// Pieces both backends share: options, clocks, the library counters the
// traced runs read, and the two backend entry points.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "core/byzcast_node.h"
#include "layers.h"
#include "ledger.h"
#include "obs/profiler.h"
#include "report.h"
#include "stats/metrics.h"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;  ///< measurement budget of one run
  bool trace = false;   ///< per-layer run instead of end-to-end
};

std::uint64_t steady_ns();
/// Process CPU (user + system) in seconds.
double process_cpu_s();
/// ru_maxrss of this process in MB.
double peak_rss_mb();
double median(std::vector<double> values);

/// Library counters read between run phases; differences give per-run
/// counts. Metrics and BufferStats counters, summed SyncManager counters.
struct Counters {
  std::uint64_t frames_sent = 0;
  std::uint64_t frames_offered = 0;
  std::uint64_t frames_delivered = 0;
  std::uint64_t frames_collided = 0;
  std::uint64_t frames_dropped = 0;
  std::array<std::uint64_t, byzcast::stats::kMsgKindCount> packets{};
  std::uint64_t packet_bytes = 0;
  std::uint64_t recovery_bytes = 0;
  std::uint64_t recovery_packets = 0;
  std::uint64_t sync_completed = 0;
  std::uint64_t sync_failed = 0;
  std::uint64_t sync_admitted = 0;
  std::uint64_t sync_bytes = 0;
  std::uint64_t buffer_allocs = 0;
  std::uint64_t bytes_copied = 0;

  static Counters read(const byzcast::stats::Metrics& metrics,
                       const std::vector<byzcast::core::ByzcastNode*>& nodes);
  [[nodiscard]] Counters minus(const Counters& before) const;
  [[nodiscard]] std::uint64_t packets_of(byzcast::stats::MsgKind kind) const {
    return packets[static_cast<std::size_t>(kind)];
  }
};

/// obs::Profiler totals per category (the library's own probes).
struct ProfileTotals {
  std::array<byzcast::obs::Profiler::CategoryStats,
             byzcast::obs::kProfileCategoryCount>
      stats{};

  static ProfileTotals read();
  [[nodiscard]] const byzcast::obs::Profiler::CategoryStats& of(
      byzcast::obs::ProfileCategory category) const {
    return stats[static_cast<std::size_t>(category)];
  }
  [[nodiscard]] double ms(byzcast::obs::ProfileCategory category) const {
    return static_cast<double>(of(category).total_ns) / 1e6;
  }
  [[nodiscard]] LeafTimes leaves() const;
};

/// Sizes sampled across the fleet while a traced run progresses.
struct FleetPeaks {
  std::size_t store_max = 0;
  std::size_t pending_requests_max = 0;
  void sample(const std::vector<byzcast::core::ByzcastNode*>& nodes);
};

/// The per-layer values both backends read from library counters and
/// Profiler categories: radio, crypto, codec, node packet mix, recovery,
/// sync, and the ledger split.
void protocol_layers(const Counters& run, const ProfileTotals& profile,
                     const FleetPeaks& peaks, std::size_t overlay_size,
                     std::uint64_t accepted_pairs, const Ledger& ledger,
                     LayerValues& out);

/// Prints the ledger lines and fails the run if its self times do not
/// add up to its wall time.
void check_ledger(const Ledger& ledger, Report& report);

/// One measured sub-run of an end-to-end run: a DES episode or a live
/// fleet, each built afresh.
struct SubRun {
  std::vector<double> setup_s;  ///< fleet builds timed for this sub-run
  /// n × env-clock seconds ÷ busy seconds of the run phase: wall on the
  /// DES (its kernel never waits), process CPU on the live fleet (its
  /// loop idles in poll).
  double node_s_per_s = 0;
  double cpu_s = 0;  ///< process CPU of the run phase
  std::vector<MessageRecord> messages;
};

/// Prints the end-to-end metrics of a run. Clock figures are medians over
/// sub-runs, so one slow sub-run cannot move them; percentiles come from
/// the one latency routine over every message of the run.
void report_end_to_end(const std::vector<SubRun>& runs, Report& report);

/// Sets the run's attempted/failed operations (expected and never
/// accepted pairs) and prints the undelivered ratio.
void report_delivery(std::uint64_t expected_pairs,
                     std::uint64_t accepted_pairs, Report& report);

/// Returns the freed heap of the last sub-run to the system, so every
/// sub-run starts from the same allocator state.
void release_heap();

void run_des(const Options& options, Report& report);
void run_live(const Options& options, Report& report);

}  // namespace perfbench
