// Unified per-run JSON artifact (DESIGN.md §10).
//
// One RunReport merges everything a run produced — Metrics aggregates,
// the obs::Timeline samples, the obs::Profiler tables and a trace
// summary — into a single JSON document, so bench results become
// diffable artifacts instead of stdout tables. byzsim emits one via
// --report; the sweep engine emits one file per (point, variant) via
// write_sweep_reports (wired to --report-dir in bench_util.h).
//
// Determinism: every section except "profile" is a pure function of the
// (ScenarioConfig, seed) pair and formats through util/json.h, so two
// reports of the same run diff clean. The profile section is wall-clock
// (explicitly non-deterministic diagnostics) and is emitted only when
// the Profiler is enabled.
#pragma once

#include <iosfwd>
#include <string>

#include "obs/msg_trace.h"
#include "sim/runner.h"

namespace byzcast::sim {
struct SweepResult;
}

namespace byzcast::obs {

/// Schema identifier written into every report; bump on breaking layout
/// changes (schema documented in DESIGN.md §10).
inline constexpr const char* kRunReportSchema = "byzcast-run-report/v1";
inline constexpr const char* kSweepReportSchema = "byzcast-sweep-report/v1";

/// Transport-level counters of one live (byzcastd) run: datagram and
/// send-retry accounting from net::UdpTransport, impairment injections
/// from net::ImpairedTransport / the wire mangler, and the PeerHealth
/// transition counts (DESIGN.md §14). All additive — the "net" section
/// is null for simulator runs, keeping v1 reports diffable.
struct LiveNetStats {
  std::uint64_t datagrams_sent = 0;
  std::uint64_t datagrams_received = 0;
  std::uint64_t datagrams_rejected = 0;
  std::uint64_t send_errors = 0;
  std::uint64_t send_retries = 0;
  std::uint64_t send_drops = 0;
  std::uint64_t impaired_dropped = 0;
  std::uint64_t impaired_duplicated = 0;
  std::uint64_t impaired_reordered = 0;
  std::uint64_t impaired_delayed = 0;
  std::uint64_t impaired_corrupted = 0;  ///< frame-level (payload) flips
  std::uint64_t wire_corrupted = 0;      ///< datagram-level (envelope) flips
  std::uint64_t health_suspect_transitions = 0;
  std::uint64_t health_alive_transitions = 0;
  std::uint64_t health_suspected_at_end = 0;
};

struct RunReport {
  std::string tool = "byzsim";  ///< emitting binary
  const sim::ScenarioConfig* config = nullptr;  ///< required
  const sim::RunResult* result = nullptr;       ///< required
  const MsgTraceRecorder* trace = nullptr;  ///< optional trace summary
  const LiveNetStats* net = nullptr;  ///< optional live-transport counters

  /// Writes the full document: schema + tool + the run object.
  void write_json(std::ostream& os) const;
  [[nodiscard]] std::string to_json() const;
};

/// The body shared by single-run reports and sweep replica entries:
/// one JSON object {"scenario": ..., "metrics": ..., "timeline": ...,
/// "profile": ..., "trace": ..., "net": ...} at indentation `indent`
/// (spaces). `net` is null for simulator runs.
void write_run_object(std::ostream& os, const sim::ScenarioConfig& config,
                      const sim::RunResult& result,
                      const MsgTraceRecorder* trace, int indent,
                      const LiveNetStats* net = nullptr);

/// Writes one "byzcast-sweep-report/v1" file per sweep point into `dir`
/// (created if missing), named point-<axis_index>-<variant_index>.json:
/// point metadata plus a full run object per accepted replica, in seed
/// order. Timelines are present when the sweep's base config enabled
/// telemetry. Returns the number of files written.
std::size_t write_sweep_reports(const sim::SweepResult& result,
                                const std::string& dir,
                                const std::string& tool);

}  // namespace byzcast::obs
