// Run-wide measurement collection (DESIGN.md S16).
//
// One Metrics instance per scenario run. The medium reports link-level
// frame outcomes; protocol nodes report per-kind packet sends and message
// accepts; the runner queries summaries. Everything a bench prints flows
// through here, so metric definitions live in exactly one place:
//
//  * packets(kind)       — protocol packets handed to the radio, i.e. the
//                          paper's "number of messages sent".
//  * delivery_ratio      — mean over broadcasts of the fraction of tracked
//                          (correct) nodes, excluding the originator, that
//                          accepted the message.
//  * latency             — accept time minus broadcast time, per (message,
//                          accepting node) pair, seconds.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "des/time.h"
#include "stats/latency_recorder.h"
#include "util/node_id.h"

namespace byzcast::stats {

/// Protocol packet kinds: the paper's message types, then the range-sync
/// extension (DESIGN.md §11). The sync kinds come *after* kOther so the
/// first kLegacyMsgKindCount slots keep their historical indices, and
/// snapshot() prints a sync kind only when its count is nonzero — both of
/// which keep sync-disabled snapshots byte-identical to pre-sync builds.
enum class MsgKind : std::uint8_t {
  kData = 0,
  kGossip,
  kRequestMsg,
  kFindMissingMsg,
  kHello,
  kOther,
  kFrontier,
  kBulkPull,
  kBulkReply,
};
inline constexpr std::size_t kLegacyMsgKindCount = 6;
inline constexpr std::size_t kMsgKindCount = 9;
const char* msg_kind_name(MsgKind kind);

/// Key for one application broadcast: (originator, sequence number).
struct MessageKey {
  NodeId origin = kInvalidNode;
  std::uint32_t seq = 0;
  auto operator<=>(const MessageKey&) const = default;
};

class Metrics {
 public:
  // --- link level (reported by the Medium) -------------------------------
  // A sent frame is "offered" once per live in-range candidate receiver,
  // and every offer resolves to exactly one of delivered / dropped /
  // collided — so offered == delivered + dropped + collided holds for
  // both counts and bytes once the channel quiesces (asserted by
  // conservation_test; a run cut off mid-air leaves the last few offers
  // unresolved). All byte arguments are Frame::wire_size() values.
  void on_frame_sent(std::size_t bytes);
  void on_frame_offered(std::size_t bytes);
  void on_frame_delivered(std::size_t bytes);
  void on_frame_collided(std::size_t bytes);
  void on_frame_dropped(std::size_t bytes);

  // --- protocol level (reported by nodes) --------------------------------
  void on_packet_sent(MsgKind kind, std::size_t bytes);
  /// Radio bytes attributable to recovery rather than first delivery:
  /// REQUEST_MSG / FIND_MISSING_MSG traffic, DATA retransmissions served
  /// from the store, and every range-sync packet. This is the bench
  /// surface for the O(missing) claim; it is deliberately *not* part of
  /// snapshot(), which pins pre-sync byte-identical output.
  void on_recovery_bytes(std::size_t bytes);
  /// A correct node called broadcast(). `targets` is how many tracked
  /// nodes should eventually accept (correct nodes minus the originator).
  void on_broadcast(MessageKey key, des::SimTime when, std::size_t targets);
  void on_accept(MessageKey key, NodeId node, des::SimTime when);

  /// Restricts accept accounting to these nodes (the correct ones).
  /// Byzantine nodes run near-honest code paths and would otherwise
  /// inflate delivery counts. Unset = count everyone.
  void set_tracked_accepts(std::vector<NodeId> nodes);

  // --- node lifecycle (reported by the fault injector / Network) ----------
  /// `node` went down (crash, radio outage, departure) at `when`.
  void on_node_down(NodeId node, des::SimTime when);
  /// `node` came back at `when`. A node that lost its volatile state may
  /// legitimately re-accept messages it accepted before the crash; such
  /// re-accepts are ignored (first accept wins) instead of being counted
  /// as duplicate_accepts violations.
  void on_node_up(NodeId node, des::SimTime when);
  /// A recovered node regained every message the live correct nodes held
  /// — `latency` is the time from recovery to holding them all.
  void on_catchup_complete(NodeId node, des::SimDuration latency);

  // --- summaries ----------------------------------------------------------
  [[nodiscard]] std::uint64_t frames_sent() const { return frames_sent_; }
  [[nodiscard]] std::uint64_t frames_delivered() const {
    return frames_delivered_;
  }
  [[nodiscard]] std::uint64_t frames_collided() const {
    return frames_collided_;
  }
  [[nodiscard]] std::uint64_t frames_dropped() const { return frames_dropped_; }
  [[nodiscard]] std::uint64_t frames_offered() const { return frames_offered_; }
  [[nodiscard]] std::uint64_t frame_bytes_sent() const {
    return frame_bytes_sent_;
  }
  [[nodiscard]] std::uint64_t frame_bytes_offered() const {
    return frame_bytes_offered_;
  }
  [[nodiscard]] std::uint64_t frame_bytes_delivered() const {
    return frame_bytes_delivered_;
  }
  [[nodiscard]] std::uint64_t frame_bytes_collided() const {
    return frame_bytes_collided_;
  }
  [[nodiscard]] std::uint64_t frame_bytes_dropped() const {
    return frame_bytes_dropped_;
  }

  [[nodiscard]] std::uint64_t packets(MsgKind kind) const;
  [[nodiscard]] std::uint64_t packet_bytes(MsgKind kind) const;
  [[nodiscard]] std::uint64_t total_packets() const;
  [[nodiscard]] std::uint64_t total_packet_bytes() const;

  [[nodiscard]] std::size_t broadcasts() const { return broadcasts_.size(); }
  /// Mean fraction of targets that accepted, over all broadcasts.
  [[nodiscard]] double delivery_ratio() const;
  /// Fraction of broadcasts accepted by every target.
  [[nodiscard]] double full_delivery_fraction() const;
  /// Accept latencies (seconds) across all broadcasts.
  [[nodiscard]] const LatencyRecorder& latency() const { return latency_; }
  /// Count of duplicate accept reports — must stay 0 (validity property).
  [[nodiscard]] std::uint64_t duplicate_accepts() const {
    return duplicate_accepts_;
  }
  /// Accepts for keys never announced via on_broadcast — forged or
  /// spurious; must stay 0 for correct-originator-only workloads.
  [[nodiscard]] std::uint64_t unknown_accepts() const {
    return unknown_accepts_;
  }

  // --- availability & recovery (fault injection) --------------------------
  /// Down events recorded (crashes, radio outages, departures).
  [[nodiscard]] std::uint64_t downtime_events() const {
    return downtime_events_;
  }
  /// Recoveries that returned (on_node_up) / that finished catching up.
  [[nodiscard]] std::uint64_t recoveries_returned() const {
    return recoveries_returned_;
  }
  [[nodiscard]] std::uint64_t recoveries_completed() const {
    return recoveries_completed_;
  }
  /// Total node-seconds spent down up to `now` (closed intervals plus
  /// still-open ones).
  [[nodiscard]] double node_seconds_down(des::SimTime now) const;
  /// Node-seconds of availability over [0, now] for `node_count` nodes:
  /// node_count * now - node_seconds_down.
  [[nodiscard]] double node_seconds_available(des::SimTime now,
                                              std::size_t node_count) const;
  /// Catch-up latencies (seconds): recovery -> holding every message the
  /// live correct nodes held.
  [[nodiscard]] const LatencyRecorder& catchup_latency() const {
    return catchup_latency_;
  }
  /// Cumulative recovery-attributable radio bytes (on_recovery_bytes).
  [[nodiscard]] std::uint64_t recovery_bytes() const {
    return recovery_bytes_;
  }
  [[nodiscard]] std::uint64_t recovery_packets() const {
    return recovery_packets_;
  }

  /// Per-broadcast accepted-node sets (for fine-grained assertions).
  struct BroadcastRecord {
    des::SimTime sent_at = 0;
    std::size_t targets = 0;
    std::map<NodeId, des::SimTime> accepted;
  };
  [[nodiscard]] const std::map<MessageKey, BroadcastRecord>& records() const {
    return broadcasts_;
  }

 private:
  std::uint64_t frames_sent_ = 0;
  std::uint64_t frames_offered_ = 0;
  std::uint64_t frames_delivered_ = 0;
  std::uint64_t frames_collided_ = 0;
  std::uint64_t frames_dropped_ = 0;
  std::uint64_t frame_bytes_sent_ = 0;
  std::uint64_t frame_bytes_offered_ = 0;
  std::uint64_t frame_bytes_delivered_ = 0;
  std::uint64_t frame_bytes_collided_ = 0;
  std::uint64_t frame_bytes_dropped_ = 0;

  std::uint64_t packet_count_[kMsgKindCount] = {};
  std::uint64_t packet_bytes_[kMsgKindCount] = {};

  std::map<MessageKey, BroadcastRecord> broadcasts_;
  std::optional<std::set<NodeId>> tracked_;
  LatencyRecorder latency_;
  std::uint64_t duplicate_accepts_ = 0;
  std::uint64_t unknown_accepts_ = 0;

  std::map<NodeId, des::SimTime> down_since_;
  std::set<NodeId> crash_survivors_;  ///< nodes that ever came back up
  des::SimDuration downtime_accum_ = 0;
  std::uint64_t downtime_events_ = 0;
  std::uint64_t recoveries_returned_ = 0;
  std::uint64_t recoveries_completed_ = 0;
  LatencyRecorder catchup_latency_;
  std::uint64_t recovery_bytes_ = 0;
  std::uint64_t recovery_packets_ = 0;
};

/// Deterministic plain-text dump of every counter and per-broadcast
/// accept record — two runs of the same (ScenarioConfig, seed) must
/// produce byte-identical snapshots (DESIGN.md §6); the determinism
/// regression test diffs these.
std::string snapshot(const Metrics& metrics);

}  // namespace byzcast::stats
