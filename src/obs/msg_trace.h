// Fleet-wide causal message tracing (DESIGN.md §15): the one protocol
// event recorder.
//
// Every node records bounded, sampled lifecycle events for each message
// it touches, keyed by the globally-unique (origin, seq) id — so traces
// from different processes correlate with ZERO wire-format changes —
// plus node-scoped events (TRUST suspicions, overlay role changes,
// range-sync sessions) that name no message. A MsgTraceRecorder is
// purely passive: it never schedules timers, never splits an rng, and
// is off by default, so trace-off runs stay event-for-event identical
// (golden determinism hashes hold) and trace-on runs are unperturbed
// observations of the same execution.
//
// Each recorder flushes one JSONL file: an anchor line declaring the
// schema, the owning node, and the clock base, then one line per event.
// On the DES the clock is virtual sim time and anchors are verbatim; on
// the live IoLoop each daemon's monotonic clock starts at its own boot,
// so the anchor pairs env-now with a wall (unix epoch) microsecond
// timestamp captured at the same instant and the merger rebases every
// event onto the shared wall clock. Mixing the two clock bases in one
// merge is an error.
//
// The merge/analysis half (parse → merge → per-message propagation
// DAGs → merged JSON / Chrome trace-event export) lives here too so
// both the `byztrace` CLI and the tests drive the same code.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "des/time.h"
#include "util/node_id.h"

namespace byzcast::obs {

inline constexpr const char* kMsgTraceSchema = "byzcast-msg-trace/v2";
inline constexpr const char* kMergedTraceSchema = "byzcast-msg-trace-merged/v1";

/// What a node recorded. Message-scoped kinds name the (origin, seq)
/// they concern; `kFirstHeard` / `kSyncPulled` carry the link-layer
/// sender in `peer` — those are the causal edges the DAG builder turns
/// into hops. Node-scoped kinds (from kSuspect on) describe the
/// recording node itself: origin = kInvalidNode, seq = 0, and `a` holds
/// the kind's argument.
enum class MsgEventKind : std::uint8_t {
  kBroadcast = 0,  // origin injected the message
  kFirstHeard,     // first DATA copy arrived (peer = link-layer sender)
  kVerified,       // signature check passed
  kDelivered,      // accepted: counts toward the delivery predicate
  kGossiped,       // header enqueued for the node's gossip rounds
  kRequested,      // REQUEST_MSG sent after gossip (peer = target)
  kSyncPulled,     // admitted via range-sync bulk pull (peer = server)
  kRejected,       // bad signature / malformed — dropped
  kForwarded,      // overlay node re-sent the DATA (peer = sender)
  kFindIssued,     // overlay node issued a 2-hop FIND (peer = gossiper)
  kRetransmitted,  // node answered a REQUEST/FIND with the stored DATA
  // --- node-scoped ---------------------------------------------------------
  kSuspect,        // TRUST suspects peer (a = fd::SuspicionReason)
  kBadSignature,   // peer sent a badly signed packet (a = reason)
  kOverlayJoin,    // node became an overlay (active) node
  kOverlayLeave,   // node became passive
  kSyncOpen,       // opened a range-sync session with peer (a = nonce)
  kSyncPull,       // sent a BULK_PULL to peer (a = range count)
  kSyncFailover,   // session step timed out / was rejected (a = attempt)
  kSyncDone,       // session ended (a = 1 success, 0 gave up)
};

inline constexpr std::size_t kMsgEventKindCount = 19;
static_assert(static_cast<std::size_t>(MsgEventKind::kSyncDone) + 1 ==
              kMsgEventKindCount);

/// True for kinds that describe the recording node rather than a message.
[[nodiscard]] constexpr bool msg_event_node_scoped(MsgEventKind kind) {
  return kind >= MsgEventKind::kSuspect;
}

/// Stable wire name ("first_heard", ...) used in the JSONL schema.
const char* msg_event_name(MsgEventKind kind);

/// Reverse lookup for the parser; returns false on an unknown name.
bool msg_event_from_name(std::string_view name, MsgEventKind& kind);

struct MsgEvent {
  des::SimTime at = 0;  // recorder clock (sim or monotonic µs)
  MsgEventKind kind = MsgEventKind::kBroadcast;
  NodeId node = kInvalidNode;  // recording node
  NodeId peer = kInvalidNode;  // sender/target where the kind defines one
  NodeId origin = kInvalidNode;
  std::uint32_t seq = 0;
  std::uint64_t a = 0;  // node-scoped kinds' argument (see MsgEventKind)
};

struct MsgTraceConfig {
  /// Trace (origin, seq) iff its id hash % sample_every == 0. The hash
  /// depends only on the message id, so every node in the fleet samples
  /// the SAME subset with no coordination — sampled DAGs stay complete.
  std::uint32_t sample_every = 1;
  /// Distinct message ids tracked before new ones are dropped.
  std::size_t max_messages = 4096;
  /// Events kept per message id (re-requests of a hot message cap out),
  /// and node-scoped events kept per recording node. A per-*node*
  /// budget: fleet-shared recorders (one DES recorder for all n nodes)
  /// multiply it by n at construction.
  std::size_t max_events_per_message = 128;
};

/// The fleet-agreed sampling predicate (see MsgTraceConfig).
bool msg_trace_sampled(NodeId origin, std::uint32_t seq,
                       std::uint32_t sample_every);

/// First line of every trace file: which node recorded it and how to
/// map its clock onto the fleet-global one.
struct MsgTraceAnchor {
  NodeId node = kInvalidNode;  // kInvalidNode ⇒ whole-fleet DES trace
  std::uint32_t n = 0;         // fleet size, 0 = unknown
  bool wall_clock = false;     // false ⇒ sim time, used verbatim
  des::SimTime anchor_env = 0;          // env.now() at the anchor instant
  std::uint64_t anchor_unix_us = 0;     // unix µs at the same instant
};

class MsgTraceRecorder {
 public:
  explicit MsgTraceRecorder(MsgTraceConfig config = {});

  void set_anchor(const MsgTraceAnchor& anchor) { anchor_ = anchor; }
  [[nodiscard]] const MsgTraceAnchor& anchor() const { return anchor_; }

  /// Appends one event. Message-scoped kinds are subject to sampling and
  /// the message/event caps; node-scoped kinds skip sampling (they have
  /// no id to hash) and are capped per recording node.
  void record(des::SimTime at, MsgEventKind kind, NodeId node, NodeId origin,
              std::uint32_t seq, NodeId peer = kInvalidNode,
              std::uint64_t a = 0);

  [[nodiscard]] const std::vector<MsgEvent>& events() const { return events_; }
  [[nodiscard]] bool empty() const { return events_.empty(); }
  /// Recorded events of `kind`.
  [[nodiscard]] std::size_t count(MsgEventKind kind) const;
  /// Events the message or node caps refused (visibility, not an
  /// error); ids the sampler skips are not counted.
  [[nodiscard]] std::size_t suppressed() const { return suppressed_; }

  /// Anchor line + one JSONL line per event, in recording order.
  void write_jsonl(std::ostream& os) const;
  /// One CSV row per event under a `t_us,kind,node,peer,origin,seq,a`
  /// header (no anchor).
  void write_csv(std::ostream& os) const;
  /// Human-readable one-line-per-event log.
  void write_text(std::ostream& os) const;

 private:
  MsgTraceConfig config_;
  MsgTraceAnchor anchor_;
  std::vector<MsgEvent> events_;
  std::map<std::pair<NodeId, std::uint32_t>, std::size_t> per_msg_events_;
  std::map<NodeId, std::size_t> per_node_events_;
  std::size_t suppressed_ = 0;
};

// --- merge & analysis (the byztrace half) ---------------------------------

struct ParsedMsgTrace {
  MsgTraceAnchor anchor;
  std::vector<MsgEvent> events;
};

/// Parses one JSONL trace stream (our own schema only). Throws
/// std::invalid_argument on a schema mismatch or a malformed line.
ParsedMsgTrace parse_msg_trace(std::istream& is);

struct MergedMsgTrace {
  bool wall_clock = false;
  std::uint64_t t0_us = 0;  // global zero subtracted from every event
  std::uint32_t n = 0;      // max fleet size any anchor declared
  std::vector<NodeId> nodes;     // recorders that contributed
  std::vector<MsgEvent> events;  // rebased to t0, deterministically sorted
};

/// Aligns clocks (wall: unix anchor + offset; sim: verbatim), rebases to
/// the earliest event, and sorts deterministically. Throws on mixed
/// clock bases or an empty input set.
MergedMsgTrace merge_msg_traces(const std::vector<ParsedMsgTrace>& traces);

/// One causal hop: `to` first obtained the message from `from` at `at`
/// (rebased). `latency_us` is at minus the time `from` itself first had
/// the message, or -1 when the parent's own trace is missing.
struct HopEdge {
  NodeId from = kInvalidNode;
  NodeId to = kInvalidNode;
  des::SimTime at = 0;
  std::int64_t latency_us = -1;
  bool sync = false;  // range-sync catch-up edge, not a live DATA hop
};

struct CoveragePoint {
  des::SimTime at = 0;       // rebased delivery time
  std::size_t covered = 0;   // nodes delivered by then (inclusive)
};

/// Propagation DAG of one (origin, seq): root broadcast, one first-hop
/// edge per hearing node, the delivery-coverage curve, and stall flags.
struct MsgDag {
  NodeId origin = kInvalidNode;
  std::uint32_t seq = 0;
  bool have_root = false;          // a kBroadcast event was observed
  des::SimTime broadcast_at = 0;   // rebased, valid iff have_root
  std::vector<HopEdge> edges;
  std::vector<NodeId> delivered;   // sorted
  std::vector<NodeId> stalled;     // touched the message, never delivered
  std::vector<CoveragePoint> coverage;
  /// Every delivering node chains back to the origin through edges.
  /// Unknown-latency edges (parent's acquisition record lost to a
  /// crash) count as grounded: the child's hearing attests the parent
  /// had the message, even though when it got it is unrecoverable.
  bool complete = false;
};

/// One DAG per message id that shows causal content (a root, a hearing
/// event, or a delivery). Ids that were only ever *rejected* — wire
/// corruption can garble the id fields themselves — yield no DAG, and
/// node-scoped events are ignored.
std::vector<MsgDag> build_dags(const MergedMsgTrace& merged);

/// "byzcast-msg-trace-merged/v1": merge metadata, per-message DAGs, and
/// fleet-level hop-latency summary. Deterministic for equal inputs.
void write_merged_json(std::ostream& os, const MergedMsgTrace& merged,
                       const std::vector<MsgDag>& dags);

/// Chrome trace-event JSON (catapult/Perfetto loadable): one process
/// per node, a complete-event span per (node, message) from first touch
/// to delivery, instant events per lifecycle station, flow arrows per
/// causal hop, and the node-scoped events on one per-node track.
void write_chrome_trace(std::ostream& os, const MergedMsgTrace& merged);

}  // namespace byzcast::obs
