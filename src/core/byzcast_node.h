// The Byzantine-tolerant broadcast node — the paper's contribution
// (Figures 1, 3 and 4), assembled from the substrates:
//
//   radio <-> [FD interceptor] <-> dissemination / gossip-recovery tasks
//                    |                    |
//            MUTE, VERBOSE, TRUST  <-> overlay maintenance
//
// Three concurrent tasks (§3):
//  1. Dissemination: DATA flooded along overlay nodes only.
//  2. Gossip & recovery: signature gossip lazycast by everyone;
//     REQUEST_MSG / FIND_MISSING_MSG fetch messages the overlay failed to
//     deliver (TTL-2 FIND bypasses one Byzantine overlay hop).
//  3. Overlay maintenance: HELLO beacons + a pluggable trust-aware
//     election rule (CDS or MIS+B).
//
// Every handler is virtual so Byzantine behaviours (byz/adversary.h) can
// override precisely the step they corrupt while inheriting the rest of
// the honest machinery — a Byzantine node is "a node running different
// code", which is exactly how the type system models it here.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <vector>

#include "core/config.h"
#include "core/message.h"
#include "core/message_store.h"
#include "crypto/signature.h"
#include "net/env.h"
#include "net/timer.h"
#include "net/transport.h"
#include "fd/mute_fd.h"
#include "fd/trust_fd.h"
#include "fd/verbose_fd.h"
#include "obs/gauge.h"
#include "obs/msg_trace.h"
#include "overlay/neighbor_table.h"
#include "overlay/overlay.h"
#include "stats/metrics.h"
#include "sync/backoff.h"
#include "sync/sync.h"

namespace byzcast::core {

class ByzcastNode : public obs::GaugeSource {
 public:
  /// Called exactly once per accepted message (validity property).
  using AcceptHandler =
      std::function<void(const MessageId&, std::span<const std::uint8_t>)>;

  /// `env`, `transport` and `pki` must outlive the node. Installs itself
  /// as the transport's receive handler. The node is backend-agnostic and
  /// runs identically over the DES (des::Simulator + radio::Radio) and
  /// live sockets (net::IoLoop + net::UdpTransport).
  ByzcastNode(net::Env& env, net::Transport& transport, const crypto::Pki& pki,
              crypto::Signer signer, ProtocolConfig config,
              stats::Metrics* metrics = nullptr);
  virtual ~ByzcastNode() = default;
  ByzcastNode(const ByzcastNode&) = delete;
  ByzcastNode& operator=(const ByzcastNode&) = delete;

  /// Arms the gossip/hello/purge timers (phase-randomized) and sends the
  /// first HELLO. Call once after construction (and again via restart()).
  virtual void start();

  /// Crash-stop (fault injection): cancels the periodic timers and marks
  /// the node halted so in-flight callbacks (recovery one-shots, frames
  /// already delivered by the radio) become no-ops. State is left in
  /// place — restart() wipes it, since nothing can read it while halted.
  /// Adversaries with extra timers override this to stop them too.
  virtual void stop();

  /// Crash-recover: wipes all volatile state — message store, gossip
  /// queue, neighbour table, failure detectors, recovery bookkeeping,
  /// overlay role — and rejoins the protocol via start(). Keys and the
  /// broadcast sequence counter survive (they model persistent storage;
  /// reusing sequence numbers would alias old message ids). The node
  /// catches up on missed messages through gossip/anti-entropy like any
  /// rejoining node.
  void restart();

  [[nodiscard]] bool running() const { return running_; }

  /// The paper's broadcast(p, m): signs and disseminates `payload`.
  void broadcast(std::vector<std::uint8_t> payload);

  void set_accept_handler(AcceptHandler handler) {
    accept_handler_ = std::move(handler);
  }
  /// Installs the protocol event recorder (obs/msg_trace.h; nullptr
  /// disables; default). Purely passive — no timers, no rng draws — so
  /// trace-on runs stay event-identical to trace-off runs.
  void set_msg_trace(obs::MsgTraceRecorder* recorder) {
    msg_trace_ = recorder;
  }
  /// Records a suspicion with TRUST: the single funnel for the MUTE and
  /// VERBOSE detectors, signature checks, sync, adversary hooks and
  /// transport-level liveness (byzcastd's PeerHealth), so every
  /// suspicion reaches the trace.
  void suspect(NodeId node, fd::SuspicionReason reason);
  /// Number of nodes that should accept our broadcasts (correct nodes
  /// minus us); only used for Metrics::on_broadcast bookkeeping.
  void set_expected_targets(std::size_t targets) { targets_ = targets; }

  // --- introspection (tests, benches, examples) ---------------------------
  [[nodiscard]] NodeId id() const { return signer_.id(); }
  [[nodiscard]] bool in_overlay() const { return active_; }
  /// OL(1, p): neighbours that claim to be overlay nodes and that TRUST
  /// does not distrust.
  [[nodiscard]] std::vector<NodeId> overlay_neighbors() const;
  [[nodiscard]] const MessageStore& store() const { return store_; }
  [[nodiscard]] const overlay::NeighborTable& neighbor_table() const {
    return table_;
  }
  [[nodiscard]] fd::MuteFd& mute() { return mute_; }
  [[nodiscard]] fd::VerboseFd& verbose() { return verbose_; }
  [[nodiscard]] fd::TrustFd& trust() { return trust_; }
  [[nodiscard]] const ProtocolConfig& config() const { return config_; }
  [[nodiscard]] std::uint32_t next_seq() const { return next_seq_; }
  /// Known-missing messages still being re-requested (pending
  /// REQUEST_MSG retries).
  [[nodiscard]] std::size_t pending_request_count() const {
    return pending_missing_.size();
  }
  /// The range-sync endpoint; nullptr unless config.sync.enabled (so a
  /// sync-disabled node carries zero sync state and zero extra rng
  /// draws — the determinism golden hash depends on that).
  [[nodiscard]] sync::SyncManager* sync_manager() { return sync_.get(); }
  [[nodiscard]] const sync::SyncManager* sync_manager() const {
    return sync_.get();
  }

  /// The node's full flight-recorder row: delegates to the store, TRUST
  /// and neighbour table, then adds its own role/recovery gauges
  /// (overlay_active, overlay_dominator, pending_requests, running).
  void poll_gauges(obs::GaugeVisitor& visitor) const override;

 protected:
  // --- dispatch (the FD interceptor of Figure 1) ---------------------------
  virtual void on_frame(const radio::Frame& frame);
  // --- the five upon-receive handlers of Figures 3/4 -----------------------
  virtual void handle_data(const DataMsg& msg, NodeId from);
  virtual void handle_gossip(const GossipMsg& msg, NodeId from);
  virtual void handle_request(const RequestMsg& msg, NodeId from);
  virtual void handle_find(const FindMissingMsg& msg, NodeId from);
  virtual void handle_hello(const HelloMsg& msg, NodeId from);
  // --- periodic tasks -------------------------------------------------------
  virtual void on_gossip_tick();
  virtual void on_hello_tick();

  // --- helpers shared with adversaries --------------------------------------
  void send_packet(const Packet& packet);
  /// The single byte-accounting funnel: every outgoing buffer — freshly
  /// serialized or replayed from a store/frame cache — passes through
  /// here exactly once on its way to the radio. `recovery` marks DATA
  /// retransmissions for the recovery-bytes metric; packets whose kind is
  /// inherently recovery traffic (REQUEST/FIND/sync) are counted
  /// regardless of the flag.
  void send_frame(stats::MsgKind kind, util::Buffer bytes,
                  bool recovery = false);
  /// Sends DATA for a stored message with the given ttl, honouring the
  /// reply-suppression window. No-op if not stored.
  void reply_with_stored(const MessageId& id, std::uint8_t ttl);
  /// Verifies both signatures of a DATA message.
  [[nodiscard]] bool verify_data(const DataMsg& msg) const;
  [[nodiscard]] bool verify_gossip_entry(const GossipEntry& entry) const;
  /// Accept(p_i, p_j, message) of Figure 3 line 7 for a stored message:
  /// marks it accepted and, the first time only, traces the delivery,
  /// counts it and hands it to the accept handler.
  void accept(const DataMsg& msg, NodeId from);
  /// Stores + accepts + forwards + gossips a verified DATA message
  /// (the first-receipt body of Figure 3 lines 7-21).
  void accept_and_forward(const DataMsg& msg, NodeId from);
  /// Quiet admission for range-sync catch-up: store + accept + deliver,
  /// but no forward and no gossip relay — the messages are old news to
  /// everyone but us, and catch-up must stay O(missing) on the air.
  void admit_synced(const DataMsg& msg, NodeId from);
  /// Peers a sync session may ask, overlay members first (they are the
  /// best-provisioned responders), untrusted nodes excluded.
  [[nodiscard]] std::vector<NodeId> sync_candidates() const;
  /// Builds this node's current HELLO (signed).
  [[nodiscard]] HelloMsg make_hello();
  /// True when TRUST lets us rely on `node` for overlay purposes.
  [[nodiscard]] bool reliable(NodeId node) const;

  /// Records a trace event when tracing is enabled: a lifecycle station
  /// of message `id`, or — for node-scoped kinds, `id` left empty — an
  /// event of this node with argument `a`.
  void msg_event(obs::MsgEventKind kind, const MessageId& id = {},
                 NodeId peer = kInvalidNode, std::uint64_t a = 0) {
    if (msg_trace_ == nullptr) return;
    msg_trace_->record(env_.now(), kind, signer_.id(), id.origin, id.seq,
                       peer, a);
  }

  net::Env& env_;
  net::Transport& transport_;
  const crypto::Pki& pki_;
  crypto::Signer signer_;
  ProtocolConfig config_;
  stats::Metrics* metrics_;
  obs::MsgTraceRecorder* msg_trace_ = nullptr;
  des::Rng rng_;

  MessageStore store_;
  GossipQueue gossip_queue_;
  overlay::NeighborTable table_;
  fd::MuteFd mute_;
  fd::VerboseFd verbose_;
  fd::TrustFd trust_;
  std::unique_ptr<overlay::OverlayRule> overlay_rule_;
  bool active_ = false;
  bool dominator_ = false;
  bool running_ = false;
  /// Bumped by every stop(); one-shot callbacks scheduled on the raw
  /// simulator capture the epoch they were armed in and bail if the node
  /// crashed (and possibly restarted) since — a restart must not inherit
  /// pre-crash sends.
  std::uint32_t incarnation_ = 0;

  AcceptHandler accept_handler_;
  std::size_t targets_ = 0;
  std::uint32_t next_seq_ = 0;

  net::PeriodicTimer gossip_timer_;
  net::PeriodicTimer hello_timer_;

  /// A REQUEST (or FIND) for an id counts as in flight this long; it is
  /// also the first, unjittered retry spacing of kRequestBackoff.
  static constexpr des::SimDuration kRequestRetry = des::seconds(1);
  static constexpr sync::BackoffPolicy kRequestBackoff{
      kRequestRetry, des::seconds(8), 0.25, /*jitter_from_attempt=*/1,
      /*max_attempts=*/12};

  // Recovery bookkeeping: last REQUEST time per missing id, FINDs already
  // relayed (per (id, issuer)) and issued (per id) to stop relay storms,
  // and repeat counts of incoming REQUESTs (the §3.2.2 "too many times
  // from the same node" rule). The three time windows only act while
  // younger than kRequestRetry (last_request_ also while its id is
  // pending); prune_recovery_windows(), run on the hello tick, drops
  // them after that.
  std::map<MessageId, des::SimTime> last_request_;
  std::map<std::pair<MessageId, NodeId>, des::SimTime> forwarded_finds_;
  std::map<MessageId, des::SimTime> last_find_issued_;
  std::map<std::pair<MessageId, NodeId>, int> request_counts_;
  void prune_recovery_windows();

  // Known-missing messages (gossip heard, data absent). Re-requested on
  // the gossip tick under a jittered exponential backoff
  // (kRequestBackoff; the shared sync::Backoff implementation)
  // until resolved or the retry budget runs out, so a lost REQUEST or
  // reply does not strand the message forever while a persistently
  // missing one cannot draw unbounded traffic. Retries rotate across
  // every node heard gossiping the id — a Byzantine gossiper that never
  // supplies cannot monopolize the retries.
  struct PendingMissing {
    GossipEntry entry;
    std::vector<NodeId> gossipers;
    std::size_t next_target = 0;
    sync::Backoff backoff;
    /// Current retry spacing, measured from the last REQUEST for the id
    /// (whichever path sent it) exactly like the legacy fixed interval —
    /// attempt 0 equals kRequestRetry unjittered, so runs replay the
    /// historical event order until a second retry fires.
    des::SimDuration next_delay = 0;
    des::SimTime first_heard = 0;
  };
  std::map<MessageId, PendingMissing> pending_missing_;
  void retry_pending_requests();
  /// Range-sync session endpoint (DESIGN.md §11); allocated only when
  /// config_.sync.enabled.
  std::unique_ptr<sync::SyncManager> sync_;
  /// Re-gossips messages that neighbours' stability vectors show they
  /// lack (config_.anti_entropy; see config.h).
  void anti_entropy_regossip();
};

/// Factory for the two overlay rules of §3.3.
std::unique_ptr<overlay::OverlayRule> make_overlay_rule(
    overlay::OverlayKind kind);

}  // namespace byzcast::core
