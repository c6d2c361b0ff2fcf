// Batched anti-entropy range-sync sessions (DESIGN.md §11).
//
// The paper's recovery path is per-message: one REQUEST_MSG round trip
// per missing message, each retried on its own schedule. A node that
// rejoins after a crash or partition may be missing *everything*, and
// O(messages) round trips against lossy links is exactly the regime the
// bench_anti_entropy 0%-recovery result demonstrates. Range-sync makes
// catch-up O(missing):
//
//   opener                                 responder (stateless)
//     | -- FRONTIER(request, our frontier) -->  |
//     | <-- FRONTIER(response, its frontier) -- |
//     |  [compute missing set locally]          |
//     | -- BULK_PULL(ranges) ------------------>|
//     | <-- BULK_REPLY(batch, last?) ---------- |   served verbatim from
//     |  [verify + admit each blob]             |   cached wire bytes
//     | -- BULK_PULL(remaining) --------------->|   (requester-driven
//     |          ... until last && none missing |    paging)
//
// Sessions are per-node state machines on the Env's timers. Every
// step arms one retry timer under a jittered exponential Backoff; a
// timeout (lost packet, crashed peer) rotates to the next candidate
// neighbour with a fresh nonce, and when the retry budget is exhausted
// the session gives up — the per-message gossip/REQUEST path is still
// running underneath, so delivery guarantees are never weaker than
// without sync.
//
// Byzantine safety: both frontier replies and batches are signed by the
// responder, every pulled blob must (1) parse as a canonical DATA packet
// at ttl 1, (2) fall inside a range we actually requested, and (3) carry
// valid originator signatures — so a Byzantine responder can neither
// inject forged messages nor claim credit for garbage; it can only
// starve, which the no-progress guard converts into a failover.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "core/message.h"
#include "core/message_store.h"
#include "crypto/signature.h"
#include "des/rng.h"
#include "net/env.h"
#include "net/timer.h"
#include "fd/fd_types.h"
#include "obs/gauge.h"
#include "obs/msg_trace.h"
#include "sync/backoff.h"
#include "sync/sync_config.h"
#include "util/node_id.h"

namespace byzcast::sync {

/// One node's range-sync endpoint: opener state machine + stateless
/// responder. Owned by ByzcastNode; decoupled from it through Hooks so
/// the subsystem stays independently testable.
class SyncManager : public obs::GaugeSource {
 public:
  enum class State : std::uint8_t {
    kIdle = 0,
    kAwaitFrontier = 1,
    kAwaitBatch = 2,
  };

  struct Hooks {
    /// Hand a packet to the radio (ByzcastNode::send_packet).
    std::function<void(const core::Packet&)> send;
    /// Candidate peers to sync against, best first (trusted neighbours).
    std::function<std::vector<NodeId>()> candidates;
    /// Report a Byzantine responder to TRUST.
    std::function<void(NodeId, fd::SuspicionReason)> suspect;
    /// Admit one fully verified pulled message (store + accept, without
    /// re-flooding: catch-up must stay O(missing) on the air).
    std::function<void(const core::DataMsg&, NodeId from)> admit;
    /// Node-scoped trace hook (may be null): session events against
    /// `peer` with the kind's argument (obs::MsgEventKind).
    std::function<void(obs::MsgEventKind, NodeId peer, std::uint64_t a)>
        trace;
  };

  /// `store` must outlive the manager. `rng` should be a dedicated
  /// split so session jitter never perturbs the owner's draws.
  SyncManager(net::Env& env, NodeId self, const crypto::Pki& pki,
              crypto::Signer signer, core::MessageStore& store,
              SyncConfig config, Hooks hooks, des::Rng rng);

  /// Arms the periodic session timer (no-op unless period > 0).
  void start();
  /// Cancels every timer and abandons any session (crash-stop).
  void stop();
  /// stop() + forget session state; cumulative counters survive (they
  /// model what the run observed, not what the node remembers).
  void reset();

  /// Schedule a catch-up session startup_delay from now (recovery hook).
  void begin_catchup();

  // --- packet entry points (dispatched by ByzcastNode::on_frame) ----------
  void on_frontier(const core::FrontierMsg& msg, NodeId from);
  void on_bulk_pull(const core::BulkPullMsg& msg, NodeId from);
  void on_bulk_reply(const core::BulkReplyMsg& msg, NodeId from);

  // --- introspection ------------------------------------------------------
  [[nodiscard]] State state() const { return state_; }
  [[nodiscard]] NodeId peer() const { return peer_; }
  [[nodiscard]] std::uint64_t messages_admitted() const { return admitted_; }
  [[nodiscard]] std::uint64_t bytes_admitted() const { return admitted_bytes_; }
  [[nodiscard]] std::uint64_t sessions_completed() const { return completed_; }
  [[nodiscard]] std::uint64_t sessions_failed() const { return failed_; }
  [[nodiscard]] std::uint64_t failovers() const { return failovers_; }
  /// Missing-message estimate vs. the last peer frontier received.
  [[nodiscard]] std::uint64_t last_missing() const { return last_missing_; }
  [[nodiscard]] const SyncConfig& config() const { return config_; }

  /// Gauges: session state, current missing estimate, cumulative pulled
  /// bytes — the flight-recorder row of the catch-up story.
  void poll_gauges(obs::GaugeVisitor& visitor) const override;

 private:
  void open_session();
  void send_pull(const std::vector<core::PullRange>& ranges);
  /// Arms the retry timer with the next backoff delay; on fire the
  /// session rotates to another candidate (failover) or gives up.
  void arm_retry();
  void on_retry_fire();
  /// Treat the current peer as failed *now* (Byzantine reply): same path
  /// as a timeout, without waiting for it.
  void fail_peer();
  void finish(bool success);
  /// Ranges we are missing vs. `peer_frontier_`, capped at kMaxRanges.
  [[nodiscard]] std::vector<core::PullRange> missing_ranges() const;
  [[nodiscard]] std::uint64_t count_missing(
      const std::vector<core::PullRange>& ranges) const;
  [[nodiscard]] bool in_requested_ranges(const core::MessageId& id) const;
  void trace_event(obs::MsgEventKind kind, std::uint64_t a) const {
    if (hooks_.trace) hooks_.trace(kind, peer_, a);
  }

  net::Env& env_;
  NodeId self_;
  const crypto::Pki& pki_;
  crypto::Signer signer_;
  core::MessageStore& store_;
  SyncConfig config_;
  Hooks hooks_;
  des::Rng rng_;

  State state_ = State::kIdle;
  NodeId peer_ = kInvalidNode;
  std::uint32_t nonce_ = 0;
  std::vector<core::FrontierEntry> peer_frontier_;
  std::vector<core::PullRange> requested_;
  std::uint64_t last_pull_missing_ = 0;  ///< no-progress guard
  std::size_t rotation_ = 0;             ///< next candidate index
  Backoff backoff_;

  net::OneShotTimer retry_timer_;
  net::OneShotTimer startup_timer_;
  net::PeriodicTimer period_timer_;

  std::uint64_t admitted_ = 0;
  std::uint64_t admitted_bytes_ = 0;
  std::uint64_t completed_ = 0;
  std::uint64_t failed_ = 0;
  std::uint64_t failovers_ = 0;
  std::uint64_t last_missing_ = 0;
};

}  // namespace byzcast::sync
