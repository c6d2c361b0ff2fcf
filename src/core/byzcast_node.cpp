#include "core/byzcast_node.h"

#include <algorithm>

#include "overlay/cds_overlay.h"
#include "overlay/misb_overlay.h"

namespace byzcast::core {

namespace {
fd::MessageHeader header_of(MsgType type, const MessageId& id) {
  return fd::MessageHeader{static_cast<std::uint8_t>(type), id.origin, id.seq};
}

fd::HeaderPattern data_pattern(const MessageId& id) {
  return fd::HeaderPattern{static_cast<std::uint8_t>(MsgType::kData),
                           id.origin, id.seq};
}

/// REQUEST_MSGs from one node closer than this make VERBOSE indict it
/// (the init-time spacing rule of §3.1).
constexpr des::SimDuration kRequestMinSpacing = des::millis(10);
constexpr std::size_t kAntiEntropyBudget = 8;  ///< re-gossips per hello tick
}  // namespace

namespace {
/// OverlayKind::kNone: never elect (gossip-only ablation).
class NullOverlay final : public overlay::OverlayRule {
 public:
  [[nodiscard]] overlay::OverlayDecision compute(
      const overlay::OverlayView&, overlay::OverlayDecision) const override {
    return {false, false};
  }
  [[nodiscard]] const char* name() const override { return "none"; }
};
}  // namespace

std::unique_ptr<overlay::OverlayRule> make_overlay_rule(
    overlay::OverlayKind kind) {
  switch (kind) {
    case overlay::OverlayKind::kCds:
      return std::make_unique<overlay::CdsOverlay>();
    case overlay::OverlayKind::kMisB:
      return std::make_unique<overlay::MisBOverlay>();
    case overlay::OverlayKind::kNone:
      return std::make_unique<NullOverlay>();
  }
  return std::make_unique<overlay::CdsOverlay>();
}

ByzcastNode::ByzcastNode(net::Env& env, net::Transport& transport,
                         const crypto::Pki& pki, crypto::Signer signer,
                         ProtocolConfig config, stats::Metrics* metrics)
    : env_(env),
      transport_(transport),
      pki_(pki),
      signer_(signer),
      config_(config),
      metrics_(metrics),
      rng_(env.split_rng()),
      gossip_queue_(config.gossip_queue),
      table_(config.neighbor_timeout),
      mute_(env, config.mute),
      verbose_(env, config.verbose),
      trust_(env, config.trust),
      overlay_rule_(make_overlay_rule(config.overlay_kind)),
      gossip_timer_(env, config.gossip_period, [this] { on_gossip_tick(); }),
      hello_timer_(env, config.hello_period, [this] { on_hello_tick(); }) {
  transport_.set_receive_handler(
      [this](const radio::Frame& frame) { on_frame(frame); });
  // FD wiring (Figure 1): MUTE and VERBOSE report into TRUST.
  mute_.set_on_suspect(
      [this](NodeId node) { suspect(node, fd::SuspicionReason::kMute); });
  verbose_.set_on_suspect(
      [this](NodeId node) { suspect(node, fd::SuspicionReason::kVerbose); });
  verbose_.set_min_spacing(static_cast<std::uint8_t>(MsgType::kRequestMsg),
                           kRequestMinSpacing);
  if (config_.sync.enabled) {
    // Constructed (and handed its own rng split) only when enabled: a
    // sync-disabled node must consume exactly the same rng stream and
    // schedule exactly the same events as a pre-sync build.
    sync::SyncManager::Hooks hooks;
    hooks.send = [this](const Packet& packet) { send_packet(packet); };
    hooks.candidates = [this] { return sync_candidates(); };
    hooks.suspect = [this](NodeId node, fd::SuspicionReason reason) {
      suspect(node, reason);
    };
    hooks.admit = [this](const DataMsg& msg, NodeId from) {
      admit_synced(msg, from);
    };
    hooks.trace = [this](obs::MsgEventKind kind, NodeId peer,
                         std::uint64_t a) { msg_event(kind, {}, peer, a); };
    sync_ = std::make_unique<sync::SyncManager>(env, id(), pki, signer_,
                                                store_, config_.sync,
                                                std::move(hooks),
                                                env.split_rng());
  }
}

void ByzcastNode::start() {
  running_ = true;
  // Randomized phases keep beacons and gossip bundles of different nodes
  // from synchronizing into collision bursts.
  gossip_timer_.start(rng_.next_below(config_.gossip_period) + 1);
  hello_timer_.start(rng_.next_below(config_.hello_period) + 1);
  if (sync_) sync_->start();
}

void ByzcastNode::stop() {
  if (!running_) return;
  running_ = false;
  ++incarnation_;
  gossip_timer_.stop();
  hello_timer_.stop();
  if (sync_) sync_->stop();
}

void ByzcastNode::restart() {
  if (running_) return;
  store_.clear();
  gossip_queue_.clear();
  table_.clear();
  mute_.reset();
  verbose_.reset();
  trust_.reset();
  last_request_.clear();
  forwarded_finds_.clear();
  last_find_issued_.clear();
  request_counts_.clear();
  pending_missing_.clear();
  active_ = false;
  dominator_ = false;
  if (sync_) sync_->reset();
  start();
  // Recovery hook: a rejoiner knows it lost everything, so it opens a
  // catch-up session once HELLOs have repopulated its neighbour table
  // instead of waiting for gossip to reveal each miss one by one.
  if (sync_) sync_->begin_catchup();
}

void ByzcastNode::suspect(NodeId node, fd::SuspicionReason reason) {
  msg_event(reason == fd::SuspicionReason::kBadSignature
                ? obs::MsgEventKind::kBadSignature
                : obs::MsgEventKind::kSuspect,
            {}, node, static_cast<std::uint64_t>(reason));
  trust_.suspect(node, reason);
}

bool ByzcastNode::reliable(NodeId node) const {
  return trust_.level(node) == fd::TrustLevel::kTrusted;
}

void ByzcastNode::poll_gauges(obs::GaugeVisitor& visitor) const {
  store_.poll_gauges(visitor);
  trust_.poll_gauges(visitor);
  table_.poll_gauges(visitor);
  visitor.gauge("overlay_active", active_ ? 1 : 0);
  visitor.gauge("overlay_dominator", dominator_ ? 1 : 0);
  visitor.gauge("pending_requests",
                static_cast<std::int64_t>(pending_missing_.size()));
  visitor.gauge("running", running_ ? 1 : 0);
  // Present iff sync is enabled — constant within a run, so timeline
  // columns stay stable.
  if (sync_) sync_->poll_gauges(visitor);
}

std::vector<NodeId> ByzcastNode::overlay_neighbors() const {
  std::vector<NodeId> out;
  for (const auto& entry : table_.entries()) {
    if (entry.active && trust_.level(entry.id) != fd::TrustLevel::kUntrusted) {
      out.push_back(entry.id);
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

void ByzcastNode::send_packet(const Packet& packet) {
  send_frame(to_msg_kind(packet_type(packet)), serialize(packet));
}

void ByzcastNode::send_frame(stats::MsgKind kind, util::Buffer bytes,
                             bool recovery) {
  if (metrics_ != nullptr) {
    metrics_->on_packet_sent(kind, bytes.size());
    switch (kind) {
      case stats::MsgKind::kRequestMsg:
      case stats::MsgKind::kFindMissingMsg:
      case stats::MsgKind::kFrontier:
      case stats::MsgKind::kBulkPull:
      case stats::MsgKind::kBulkReply:
        recovery = true;  // these kinds only exist to recover
        break;
      default:
        break;
    }
    if (recovery) metrics_->on_recovery_bytes(bytes.size());
  }
  transport_.send(std::move(bytes));
}

bool ByzcastNode::verify_data(const DataMsg& msg) const {
  return pki_.verify(msg.id.origin, data_sign_bytes(msg.id, msg.payload),
                     msg.sig) &&
         pki_.verify(msg.id.origin, gossip_sign_bytes(msg.id), msg.gossip_sig);
}

bool ByzcastNode::verify_gossip_entry(const GossipEntry& entry) const {
  return pki_.verify(entry.id.origin, gossip_sign_bytes(entry.id),
                     entry.origin_sig);
}

// ---------------------------------------------------------------------------
// Upon send(msg) by application (Figure 3 lines 1-4)
// ---------------------------------------------------------------------------
void ByzcastNode::broadcast(std::vector<std::uint8_t> payload) {
  MessageId mid{id(), next_seq_++};
  DataMsg msg;
  msg.id = mid;
  msg.ttl = 1;
  msg.payload = std::move(payload);
  msg.sig = signer_.sign(data_sign_bytes(mid, msg.payload));
  msg.gossip_sig = signer_.sign(gossip_sign_bytes(mid));
  msg.wire = serialize(msg);  // one serialization; the store and the
                              // radio share these bytes from here on

  store_.insert(msg, env_.now());
  store_.mark_accepted(mid);  // we never re-accept our own message
  if (metrics_ != nullptr) {
    metrics_->on_broadcast(stats::MessageKey{mid.origin, mid.seq}, env_.now(),
                           targets_);
  }
  msg_event(obs::MsgEventKind::kBroadcast, mid);
  send_frame(stats::MsgKind::kData, msg.wire);  // line 3: broadcast(m, DATA)
  gossip_queue_.enqueue(msg.gossip_entry());  // line 4: lazycast(gossip)
}

// ---------------------------------------------------------------------------
// Dispatch (the "FD interceptor" between network and protocol)
// ---------------------------------------------------------------------------
void ByzcastNode::on_frame(const radio::Frame& frame) {
  // A frame already in flight when the node crashed may still be
  // delivered by the medium this tick; a halted node hears nothing.
  if (!running_) return;
  std::optional<Packet> packet = parse_packet_shared(frame.payload);
  if (!packet) {
    // Unparseable bytes from a known transmitter: locally observable
    // protocol violation.
    suspect(frame.sender, fd::SuspicionReason::kProtocolViolation);
    return;
  }
  std::visit(
      [this, &frame](auto& msg) {
        using T = std::decay_t<decltype(msg)>;
        if constexpr (std::is_same_v<T, DataMsg>) {
          handle_data(msg, frame.sender);
        } else if constexpr (std::is_same_v<T, GossipMsg>) {
          handle_gossip(msg, frame.sender);
        } else if constexpr (std::is_same_v<T, RequestMsg>) {
          handle_request(msg, frame.sender);
        } else if constexpr (std::is_same_v<T, FindMissingMsg>) {
          handle_find(msg, frame.sender);
        } else if constexpr (std::is_same_v<T, HelloMsg>) {
          handle_hello(msg, frame.sender);
        } else if constexpr (std::is_same_v<T, FrontierMsg>) {
          if (sync_) sync_->on_frontier(msg, frame.sender);
        } else if constexpr (std::is_same_v<T, BulkPullMsg>) {
          if (sync_) sync_->on_bulk_pull(msg, frame.sender);
        } else if constexpr (std::is_same_v<T, BulkReplyMsg>) {
          if (sync_) sync_->on_bulk_reply(msg, frame.sender);
        }
      },
      *packet);
}

// ---------------------------------------------------------------------------
// Upon receive(message, DATA, ttl) sent by p_j (Figure 3 lines 5-25)
// ---------------------------------------------------------------------------
void ByzcastNode::handle_data(const DataMsg& msg, NodeId from) {
  fd::MessageHeader header = header_of(MsgType::kData, msg.id);
  mute_.observe(header, from);
  verbose_.observe(header, from);

  if (MessageStore::Stored* stored = store_.find(msg.id);
      stored != nullptr) {  // line 25: duplicate, ignore
    stored->last_seen = env_.now();  // but note the fresh copy on the air
    return;
  }

  msg_event(obs::MsgEventKind::kFirstHeard, msg.id, from);
  if (!verify_data(msg)) {  // lines 22-24
    msg_event(obs::MsgEventKind::kRejected, msg.id, from);
    suspect(from, fd::SuspicionReason::kBadSignature);
    return;
  }
  msg_event(obs::MsgEventKind::kVerified, msg.id, from);
  accept_and_forward(msg, from);
}

void ByzcastNode::accept(const DataMsg& msg, NodeId from) {
  if (!store_.mark_accepted(msg.id)) return;
  msg_event(obs::MsgEventKind::kDelivered, msg.id, from);
  if (metrics_ != nullptr) {
    metrics_->on_accept(stats::MessageKey{msg.id.origin, msg.id.seq}, id(),
                        env_.now());
  }
  if (accept_handler_) accept_handler_(msg.id, msg.payload);
}

void ByzcastNode::accept_and_forward(const DataMsg& msg, NodeId from) {
  MessageStore::Stored& stored = *store_.insert(msg, env_.now()).first;
  accept(msg, from);  // line 7: Accept(p_i, p_j, message)

  // Lines 8-11: received correct message, but not from an overlay node and
  // not from the originator -> my overlay neighbours should forward it too.
  if (from != msg.id.origin) {
    std::vector<NodeId> ol = overlay_neighbors();
    bool from_overlay =
        std::find(ol.begin(), ol.end(), from) != ol.end();
    if (!from_overlay && !ol.empty()) {
      mute_.expect(data_pattern(msg.id), std::move(ol), fd::MuteFd::Mode::kOne);
    }
  }

  // Lines 12-18: overlay nodes forward; a ttl=2 recovery copy is relayed
  // one more hop even by non-overlay nodes. The forward re-sends the
  // stored wire bytes (the received frame itself when its ttl was 1).
  if (active_) {
    msg_event(obs::MsgEventKind::kForwarded, msg.id, from);
    send_frame(stats::MsgKind::kData, stored.wire(1));
  } else if (msg.ttl == 2) {
    send_frame(stats::MsgKind::kData, stored.wire(1));
  }

  // Lines 19-21 + footnote 5: start lazycasting the gossip for this
  // message (we hold both the message and its origin-signed gossip).
  if (!stored.gossip_enqueued) {
    stored.gossip_enqueued = true;
    msg_event(obs::MsgEventKind::kGossiped, msg.id);
    gossip_queue_.enqueue(msg.gossip_entry());
  }
}

void ByzcastNode::admit_synced(const DataMsg& msg, NodeId from) {
  msg_event(obs::MsgEventKind::kSyncPulled, msg.id, from);
  // No forward, no lazycast: everyone else already has this message —
  // that is exactly why a frontier could advertise it. Re-flooding the
  // backlog would turn an O(missing) catch-up into an O(missing) storm.
  store_.insert(msg, env_.now()).first->gossip_enqueued = true;
  accept(msg, from);
}

std::vector<NodeId> ByzcastNode::sync_candidates() const {
  std::vector<NodeId> active;
  std::vector<NodeId> passive;
  for (const auto& entry : table_.entries()) {
    if (trust_.level(entry.id) == fd::TrustLevel::kUntrusted) continue;
    (entry.active ? active : passive).push_back(entry.id);
  }
  std::sort(active.begin(), active.end());
  std::sort(passive.begin(), passive.end());
  active.insert(active.end(), passive.begin(), passive.end());
  return active;
}

// ---------------------------------------------------------------------------
// Upon receive(gossip_message, GOSSIP) sent by p_j (Figure 3 lines 26-41)
// ---------------------------------------------------------------------------
void ByzcastNode::handle_gossip(const GossipMsg& msg, NodeId from) {
  if (msg.hello) handle_hello(*msg.hello, from);  // piggybacked beacon
  for (const GossipEntry& entry : msg.entries) {
    fd::MessageHeader header = header_of(MsgType::kGossip, entry.id);
    mute_.observe(header, from);
    verbose_.observe(header, from);

    if (!verify_gossip_entry(entry)) {  // lines 39-41
      msg_event(obs::MsgEventKind::kRejected, entry.id, from);
      suspect(from, fd::SuspicionReason::kBadSignature);
      continue;
    }

    if (MessageStore::Stored* stored = store_.find(entry.id);
        stored != nullptr) {
      // Lines 34-38: we have the message; relay its gossip once.
      if (!stored->gossip_enqueued) {
        stored->gossip_enqueued = true;
        gossip_queue_.enqueue(entry);
      }
      continue;
    }

    // Lines 27-33: gossip about a message we miss.
    //
    // Deviation from the pseudo-code's line-29 guard: we also request
    // when the gossiper IS the originator. The paper can skip that case
    // because its dissemination property assumes the originator
    // broadcasts "infinitely often"; with one-shot broadcasts, a collided
    // initial transmission would otherwise be unrecoverable when the
    // originator is the only holder in range. The originator answers the
    // REQUEST through the normal `current_node = p_k` path (line 43).
    if (!config_.recovery_enabled) continue;
    PendingMissing fresh_entry;
    fresh_entry.entry = entry;
    fresh_entry.gossipers = {from};
    fresh_entry.backoff = sync::Backoff(kRequestBackoff);
    fresh_entry.first_heard = env_.now();
    auto [pending, fresh] =
        pending_missing_.emplace(entry.id, std::move(fresh_entry));
    if (fresh) {
      // Attempt 0 of the backoff is the legacy kRequestRetry spacing,
      // unjittered (jitter_from_attempt=1): no rng draw, no divergence
      // from the historical event order until a retry actually repeats.
      pending->second.next_delay = pending->second.backoff.next_delay(rng_);
    }
    if (!fresh) {
      auto& gossipers = pending->second.gossipers;
      if (std::find(gossipers.begin(), gossipers.end(), from) ==
              gossipers.end() &&
          gossipers.size() < 6) {
        gossipers.push_back(from);
      }
    }
    auto it = last_request_.find(entry.id);
    if (it != last_request_.end() &&
        env_.now() - it->second < kRequestRetry) {
      continue;  // a request for this id is already in flight
    }
    last_request_[entry.id] = env_.now();
    // Ask p_j and our overlay neighbours after kRequestTimeout (gives the
    // in-flight DATA a chance to arrive first). The line-28 expectation on
    // the gossiper is armed together with the request: the gossiper's
    // obligation is to *supply on demand*, and anyone delivering the
    // message discharges it (Satisfy::kAnySender).
    env_.schedule_after(kRequestTimeout,
                        [this, entry, from, epoch = incarnation_] {
      if (epoch != incarnation_ || !running_) return;  // crashed since armed
      if (store_.has(entry.id)) return;
      mute_.expect(data_pattern(entry.id), {from}, fd::MuteFd::Mode::kOne,
                   fd::MuteFd::Satisfy::kAnySender);
      msg_event(obs::MsgEventKind::kRequested, entry.id, from);
      send_packet(RequestMsg{entry, from});  // line 32
    });
  }
}

// ---------------------------------------------------------------------------
// Upon receive(missing_message, REQUEST_MSG, ttl, p_k) sent by p_j
// (Figure 4 lines 42-61)
// ---------------------------------------------------------------------------
void ByzcastNode::handle_request(const RequestMsg& msg, NodeId from) {
  fd::MessageHeader header = header_of(MsgType::kRequestMsg, msg.entry.id);
  mute_.observe(header, from);
  verbose_.observe(header, from);

  if (!verify_gossip_entry(msg.entry)) {  // lines 59-61
    suspect(from, fd::SuspicionReason::kBadSignature);
    return;
  }
  // Line 43: only overlay nodes and the targeted gossiper answer.
  if (!active_ && msg.target != id()) return;

  if (store_.has(msg.entry.id)) {  // lines 44-48
    if (active_) {
      // Line 46 / §3.2.2 item 3: "receives a REQUEST_MSG for the same
      // message m too many times from the same node q" — indict from the
      // third repeat on, so honest one-shot recovery stays unpunished.
      int& repeats = request_counts_[{msg.entry.id, from}];
      if (++repeats >= 3) verbose_.indict(from);
    }
    reply_with_stored(msg.entry.id, 1);  // line 48
    return;
  }
  // Lines 49-57: we are asked for a message we miss.
  if (from != msg.entry.id.origin) {
    if (active_ && config_.recovery_enabled) {
      // Line 52: search two hops around the Byzantine neighbour. One FIND
      // per missing id per retry window, or every concurrent REQUEST
      // would fan out its own two-hop flood.
      auto it = last_find_issued_.find(msg.entry.id);
      if (it == last_find_issued_.end() ||
          env_.now() - it->second >= kRequestRetry) {
        last_find_issued_[msg.entry.id] = env_.now();
        msg_event(obs::MsgEventKind::kFindIssued, msg.entry.id, msg.target);
        send_packet(FindMissingMsg{msg.entry, msg.target, id(),
                                   config_.find_ttl});
      }
    }
  } else {
    verbose_.indict(from);  // line 55: the originator "missing" its own msg
  }
}

// ---------------------------------------------------------------------------
// Upon receive(missing_message, FIND_MISSING_MSG, ttl, p_k) sent by p_j
// (Figure 4 lines 62-81)
// ---------------------------------------------------------------------------
void ByzcastNode::handle_find(const FindMissingMsg& msg, NodeId from) {
  fd::MessageHeader header =
      header_of(MsgType::kFindMissingMsg, msg.entry.id);
  mute_.observe(header, from);
  verbose_.observe(header, from);

  if (!verify_gossip_entry(msg.entry)) {  // lines 79-81
    suspect(from, fd::SuspicionReason::kBadSignature);
    return;
  }

  if (!store_.has(msg.entry.id)) {
    // Lines 63-66: relay once so the search reaches two hops.
    if (msg.ttl == 2) {
      auto key = std::make_pair(msg.entry.id, msg.issuer);
      auto it = forwarded_finds_.find(key);
      if (it != forwarded_finds_.end() &&
          env_.now() - it->second < kRequestRetry) {
        return;
      }
      forwarded_finds_[key] = env_.now();
      FindMissingMsg fwd = msg;
      fwd.ttl = 1;
      send_packet(fwd);
    }
    return;
  }

  // Lines 67-78: we have it; overlay nodes and the gossiper answer.
  if (!active_ && msg.gossiper != id()) return;
  if (table_.contains(msg.issuer)) {
    // Line 69-73: issuer is our direct neighbour — it should already have
    // received our broadcast of this message.
    if (active_) verbose_.indict(msg.issuer);  // line 71
    reply_with_stored(msg.entry.id, 1);        // line 73
  } else {
    reply_with_stored(msg.entry.id, 2);  // line 75: two hops back
  }
}

void ByzcastNode::reply_with_stored(const MessageId& id_, std::uint8_t ttl) {
  MessageStore::Stored* stored = store_.find(id_);
  if (stored == nullptr) return;
  if ((stored->last_reply != 0 &&
       env_.now() - stored->last_reply < kReplySuppress) ||
      env_.now() - stored->last_seen < kReplySuppress) {
    return;  // a copy is already (or still) on the air
  }
  stored->last_reply = env_.now();
  msg_event(obs::MsgEventKind::kRetransmitted, id_);
  send_frame(stats::MsgKind::kData, stored->wire(ttl), /*recovery=*/true);
}

// ---------------------------------------------------------------------------
// Overlay maintenance (§3.3)
// ---------------------------------------------------------------------------
void ByzcastNode::handle_hello(const HelloMsg& msg, NodeId from) {
  // The claimed identity must match the transmitting radio; HELLOs are
  // signed, so a mismatch is either forgery or replay.
  if (msg.from != from ||
      !pki_.verify(msg.from, hello_sign_bytes(msg), msg.sig)) {
    suspect(from, fd::SuspicionReason::kBadSignature);
    return;
  }
  fd::MessageHeader header{static_cast<std::uint8_t>(MsgType::kHello), from,
                           0};
  mute_.observe(header, from);
  verbose_.observe(header, from);

  table_.record(from, msg.active, msg.dominator, msg.neighbors,
                msg.dominator_neighbors, env_.now(), msg.stability);
  if (config_.trust_propagation) {
    for (NodeId suspectee : msg.suspects) {
      if (suspectee == id()) continue;
      trust_.neighbor_report(from, suspectee);
    }
  }
}

HelloMsg ByzcastNode::make_hello() {
  HelloMsg hello;
  hello.from = id();
  hello.active = active_;
  hello.dominator = dominator_;
  hello.neighbors = table_.neighbor_ids();
  for (const auto& entry : table_.entries()) {
    if (entry.dominator &&
        trust_.level(entry.id) != fd::TrustLevel::kUntrusted) {
      hello.dominator_neighbors.push_back(entry.id);
    }
  }
  std::sort(hello.dominator_neighbors.begin(),
            hello.dominator_neighbors.end());
  hello.suspects = trust_.untrusted();
  // Always advertised: stability purging (§3.2.2) and the reliable
  // layer's flow control both consume neighbours' prefixes, and the
  // vector costs 8 bytes per active origin. Each list stops at its parser
  // cap, keeping the lowest ids.
  hello.stability = store_.stability_vector();
  for (auto* list :
       {&hello.neighbors, &hello.dominator_neighbors, &hello.suspects}) {
    if (list->size() > kMaxNeighborList) list->resize(kMaxNeighborList);
  }
  if (hello.stability.size() > kMaxStabilityEntries) {
    hello.stability.resize(kMaxStabilityEntries);
  }
  hello.sig = signer_.sign(hello_sign_bytes(hello));
  return hello;
}

void ByzcastNode::on_hello_tick() {
  // Departed (or crashed) neighbours owe us nothing any more: drop the
  // MUTE expectations still armed on them so a node that is simply gone
  // does not keep accruing misses (Observation 3.4). Its existing
  // suspicion still ages out on its own.
  for (NodeId expired : table_.expire(env_.now())) {
    mute_.forget(expired);
  }
  // The timeout purge always runs: under kStability it is the hard upper
  // bound a Byzantine neighbour cannot extend by under-reporting its
  // stability prefix forever.
  store_.purge(env_.now(), config_.purge_timeout);
  prune_recovery_windows();
  if (config_.purge_policy == PurgePolicy::kStability) {
    store_.purge_if(env_.now(), config_.stability_min_age,
                    [this](const MessageId& mid) {
                      const auto& entries = table_.entries();
                      if (entries.empty()) return false;
                      for (const auto& entry : entries) {
                        if (table_.reported_stability(entry.id, mid.origin) <=
                            mid.seq) {
                          return false;  // some neighbour may still ask
                        }
                      }
                      return true;
                    });
  }

  // One computation step of the self-stabilizing election (§3.3).
  overlay::OverlayView view{
      id(), &table_, [this](NodeId n) { return reliable(n); }};
  bool was_active = active_;
  overlay::OverlayDecision decision =
      overlay_rule_->compute(view, {active_, dominator_});
  active_ = decision.active;
  dominator_ = decision.dominator;
  if (was_active != active_) {
    msg_event(active_ ? obs::MsgEventKind::kOverlayJoin
                      : obs::MsgEventKind::kOverlayLeave);
  }
  if (config_.anti_entropy) anti_entropy_regossip();

  // Piggyback the beacon on a pending gossip bundle when there is one
  // (§3: "most overlay maintenance messages can be piggybacked on gossip
  // messages"); otherwise it pays for its own packet.
  std::vector<GossipMsg> bundles = gossip_queue_.flush();
  if (bundles.empty()) {
    send_packet(make_hello());
  } else {
    bundles.front().hello = make_hello();
    for (GossipMsg& bundle : bundles) send_packet(bundle);
  }
}

void ByzcastNode::prune_recovery_windows() {
  // An entry older than kRequestRetry reads exactly like no entry at all,
  // except that a pending retry measures its spacing from the last
  // REQUEST for its id.
  const des::SimTime now = env_.now();
  const auto expired = [&](const auto& entry) {
    return now - entry.second >= kRequestRetry;
  };
  std::erase_if(last_request_, [&](const auto& entry) {
    return expired(entry) && !pending_missing_.contains(entry.first);
  });
  std::erase_if(last_find_issued_, expired);
  std::erase_if(forwarded_finds_, expired);
}

void ByzcastNode::on_gossip_tick() {
  for (GossipMsg& packet : gossip_queue_.flush()) {
    send_packet(packet);
  }
  if (config_.recovery_enabled) retry_pending_requests();
}

void ByzcastNode::anti_entropy_regossip() {
  std::size_t budget = kAntiEntropyBudget;
  auto own = store_.stability_vector();
  for (const auto& entry : table_.entries()) {
    if (budget == 0) break;
    if (trust_.level(entry.id) == fd::TrustLevel::kUntrusted) continue;
    for (const auto& [origin, my_prefix] : own) {
      std::uint32_t theirs = table_.reported_stability(entry.id, origin);
      for (std::uint32_t seq = theirs; seq < my_prefix && budget > 0; ++seq) {
        const MessageStore::Stored* stored = store_.find({origin, seq});
        if (stored == nullptr) continue;  // purged: recovery can't help
        gossip_queue_.enqueue(stored->msg.gossip_entry());
        --budget;
      }
    }
  }
}

void ByzcastNode::retry_pending_requests() {
  for (auto it = pending_missing_.begin(); it != pending_missing_.end();) {
    PendingMissing& pending = it->second;
    if (store_.has(it->first) || pending.backoff.exhausted() ||
        env_.now() - pending.first_heard > config_.purge_timeout) {
      it = pending_missing_.erase(it);
      continue;
    }
    // Spacing is measured from the last REQUEST for this id — whichever
    // path sent it — like the legacy fixed interval, but the interval
    // itself grows exponentially with jitter (kRequestBackoff):
    // colliding requesters decorrelate instead of re-colliding, and a
    // persistently unsupplied id backs off instead of hammering.
    auto last = last_request_.find(it->first);
    des::SimTime last_at =
        last == last_request_.end() ? pending.first_heard : last->second;
    if (env_.now() - last_at >= pending.next_delay) {
      last_request_[it->first] = env_.now();
      NodeId target =
          pending.gossipers[pending.next_target % pending.gossipers.size()];
      ++pending.next_target;
      msg_event(obs::MsgEventKind::kRequested, it->first, target);
      send_packet(RequestMsg{pending.entry, target});
      pending.next_delay = pending.backoff.next_delay(rng_);
    }
    ++it;
  }
}

}  // namespace byzcast::core
