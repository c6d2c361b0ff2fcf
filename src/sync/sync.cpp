#include "sync/sync.h"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <utility>

namespace byzcast::sync {

using core::BulkPullMsg;
using core::BulkReplyMsg;
using core::DataMsg;
using core::FrontierEntry;
using core::FrontierMsg;
using core::MessageId;
using core::Packet;
using core::PullRange;

namespace {
constexpr std::size_t kBatchMaxBytes = 24 * 1024;  ///< BULK_REPLY byte cap
constexpr std::size_t kMaxRanges = 64;             ///< ranges per BULK_PULL
constexpr std::uint32_t kTailProbe = 64;  ///< seqs probed past a tail mismatch
}  // namespace

SyncManager::SyncManager(net::Env& env, NodeId self,
                         const crypto::Pki& pki, crypto::Signer signer,
                         core::MessageStore& store, SyncConfig config,
                         Hooks hooks, des::Rng rng)
    : env_(env),
      self_(self),
      pki_(pki),
      signer_(std::move(signer)),
      store_(store),
      config_(config),
      hooks_(std::move(hooks)),
      rng_(rng),
      backoff_(config.backoff),
      retry_timer_(env),
      startup_timer_(env),
      period_timer_(env, config.period > 0 ? config.period : des::seconds(1),
                    [this] {
                      if (state_ == State::kIdle) open_session();
                    }) {
  // Receivers refuse a larger batch; an empty one would page forever.
  if (config_.batch_max_messages < 1 ||
      config_.batch_max_messages > core::kMaxBatchMessages) {
    throw std::invalid_argument(
        "SyncManager: batch size " +
        std::to_string(config_.batch_max_messages) + " outside 1.." +
        std::to_string(core::kMaxBatchMessages));
  }
}

void SyncManager::start() {
  if (config_.enabled && config_.period > 0) period_timer_.start();
}

void SyncManager::stop() {
  retry_timer_.cancel();
  startup_timer_.cancel();
  period_timer_.stop();
}

void SyncManager::reset() {
  stop();
  state_ = State::kIdle;
  peer_ = kInvalidNode;
  nonce_ = 0;
  peer_frontier_.clear();
  requested_.clear();
  last_pull_missing_ = 0;
  rotation_ = 0;
  backoff_.reset();
  last_missing_ = 0;
}

void SyncManager::begin_catchup() {
  if (!config_.enabled) return;
  startup_timer_.arm(config_.startup_delay, [this] {
    if (state_ == State::kIdle) open_session();
  });
}

void SyncManager::open_session() {
  peer_frontier_.clear();
  requested_.clear();
  std::vector<NodeId> candidates = hooks_.candidates();
  if (candidates.empty()) {
    // Nobody to ask yet (table still filling after a rejoin). Burn one
    // attempt waiting — the budget must bound total session time even
    // when isolated.
    peer_ = kInvalidNode;
    state_ = State::kAwaitFrontier;
    arm_retry();
    return;
  }
  peer_ = candidates[rotation_ % candidates.size()];
  ++rotation_;
  nonce_ = static_cast<std::uint32_t>(rng_.next_u64());
  state_ = State::kAwaitFrontier;

  FrontierMsg msg;
  msg.from = self_;
  msg.target = peer_;
  msg.response = false;
  msg.nonce = nonce_;
  msg.entries = store_.frontier();
  msg.sig = signer_.sign(core::frontier_sign_bytes(msg));
  trace_event(obs::MsgEventKind::kSyncOpen, nonce_);
  hooks_.send(Packet{std::move(msg)});
  arm_retry();
}

void SyncManager::send_pull(const std::vector<PullRange>& ranges) {
  requested_ = ranges;
  BulkPullMsg msg;
  msg.from = self_;
  msg.target = peer_;
  msg.nonce = nonce_;
  msg.ranges = ranges;
  msg.sig = signer_.sign(core::bulk_pull_sign_bytes(msg));
  trace_event(obs::MsgEventKind::kSyncPull, ranges.size());
  hooks_.send(Packet{std::move(msg)});
  arm_retry();
}

void SyncManager::arm_retry() {
  des::SimDuration delay = backoff_.next_delay(rng_);
  retry_timer_.arm(delay, [this] { on_retry_fire(); });
}

void SyncManager::on_retry_fire() {
  ++failovers_;
  trace_event(obs::MsgEventKind::kSyncFailover,
              static_cast<std::uint64_t>(backoff_.attempts()));
  if (backoff_.exhausted()) {
    finish(false);
    return;
  }
  // Rotate to the next candidate and restart from the frontier exchange
  // — the old peer may be crashed, partitioned away, or lying.
  open_session();
}

void SyncManager::fail_peer() {
  retry_timer_.cancel();
  on_retry_fire();
}

void SyncManager::finish(bool success) {
  retry_timer_.cancel();
  trace_event(obs::MsgEventKind::kSyncDone, success ? 1 : 0);
  if (success) {
    ++completed_;
  } else {
    ++failed_;
  }
  state_ = State::kIdle;
  peer_ = kInvalidNode;
  peer_frontier_.clear();
  requested_.clear();
  last_pull_missing_ = 0;
  backoff_.reset();
}

std::vector<PullRange> SyncManager::missing_ranges() const {
  std::vector<PullRange> ranges;
  for (const FrontierEntry& e : peer_frontier_) {
    if (ranges.size() >= kMaxRanges) break;
    std::uint32_t mine = store_.stability_prefix(e.origin);
    if (e.prefix > mine) {
      // The peer holds a longer contiguous run: everything in
      // [mine, e.prefix) is missing here (modulo raggedness, which
      // count_missing and the admit-side dedup tolerate).
      ranges.push_back({e.origin, mine, e.prefix - mine});
    } else if (e.prefix == mine && e.tail_digest != 0 &&
               e.tail_digest != store_.tail_digest(e.origin)) {
      // Equal watermarks but different ragged tails: probe a bounded
      // window past the prefix instead of trying to invert the digest.
      ranges.push_back({e.origin, mine, kTailProbe});
    }
  }
  return ranges;
}

std::uint64_t SyncManager::count_missing(
    const std::vector<PullRange>& ranges) const {
  std::uint64_t n = 0;
  for (const PullRange& range : ranges) {
    n += store_.missing_in(range.origin, range.from_seq, range.count);
  }
  return n;
}

bool SyncManager::in_requested_ranges(const MessageId& id) const {
  for (const PullRange& range : requested_) {
    if (id.origin != range.origin) continue;
    std::uint64_t end = static_cast<std::uint64_t>(range.from_seq) + range.count;
    if (id.seq >= range.from_seq && id.seq < end) return true;
  }
  return false;
}

void SyncManager::on_frontier(const FrontierMsg& msg, NodeId from) {
  if (!config_.enabled) return;
  if (msg.target != self_ || from == self_) return;
  if (msg.from != from) {
    hooks_.suspect(from, fd::SuspicionReason::kProtocolViolation);
    return;
  }
  if (!pki_.verify(from, core::frontier_sign_bytes(msg), msg.sig)) {
    hooks_.suspect(from, fd::SuspicionReason::kBadSignature);
    return;
  }
  if (!msg.response) {
    // Stateless responder half: answer with our frontier, echoing the
    // opener's nonce so its session can match the reply.
    FrontierMsg reply;
    reply.from = self_;
    reply.target = from;
    reply.response = true;
    reply.nonce = msg.nonce;
    reply.entries = store_.frontier();
    reply.sig = signer_.sign(core::frontier_sign_bytes(reply));
    hooks_.send(Packet{std::move(reply)});
    return;
  }
  // Opener half: only the reply we are actually waiting for counts.
  if (state_ != State::kAwaitFrontier || from != peer_ || msg.nonce != nonce_) {
    return;
  }
  retry_timer_.cancel();
  backoff_.reset();  // progress: budget bounds *consecutive* failures
  peer_frontier_ = msg.entries;
  std::vector<PullRange> ranges = missing_ranges();
  last_missing_ = count_missing(ranges);
  if (ranges.empty()) {
    finish(true);
    return;
  }
  state_ = State::kAwaitBatch;
  last_pull_missing_ = last_missing_;
  send_pull(ranges);
}

void SyncManager::on_bulk_pull(const BulkPullMsg& msg, NodeId from) {
  if (!config_.enabled) return;
  if (msg.target != self_ || from == self_) return;
  if (msg.from != from) {
    hooks_.suspect(from, fd::SuspicionReason::kProtocolViolation);
    return;
  }
  if (!pki_.verify(from, core::bulk_pull_sign_bytes(msg), msg.sig)) {
    hooks_.suspect(from, fd::SuspicionReason::kBadSignature);
    return;
  }
  BulkReplyMsg reply;
  reply.from = self_;
  reply.target = from;
  reply.nonce = msg.nonce;
  std::size_t batch_bytes = 0;
  bool truncated = false;
  for (const PullRange& range : msg.ranges) {
    if (truncated) break;
    for (core::MessageStore::Stored* stored :
         store_.stored_range(range.origin, range.from_seq, range.count)) {
      util::Buffer wire = stored->wire(1);
      // Close the batch at the caps — but never send an empty batch when
      // a single blob alone exceeds the byte cap, or paging would stall.
      if (reply.messages.size() >= config_.batch_max_messages ||
          (!reply.messages.empty() &&
           batch_bytes + wire.size() > kBatchMaxBytes)) {
        truncated = true;
        break;
      }
      batch_bytes += wire.size();
      reply.messages.push_back(std::move(wire));
    }
  }
  reply.last = !truncated;
  reply.sig = signer_.sign(core::bulk_reply_sign_bytes(reply));
  hooks_.send(Packet{std::move(reply)});
}

void SyncManager::on_bulk_reply(const BulkReplyMsg& msg, NodeId from) {
  if (!config_.enabled) return;
  if (msg.target != self_ || from == self_) return;
  if (msg.from != from) {
    hooks_.suspect(from, fd::SuspicionReason::kProtocolViolation);
    return;
  }
  if (!pki_.verify(from, core::bulk_reply_sign_bytes(msg), msg.sig)) {
    hooks_.suspect(from, fd::SuspicionReason::kBadSignature);
    return;
  }
  if (state_ != State::kAwaitBatch || from != peer_ || msg.nonce != nonce_) {
    return;
  }
  // Verify the whole batch before admitting any of it: a single bogus
  // blob condemns the batch (and the responder) — partial admission
  // would let a Byzantine responder smuggle noise behind real messages.
  std::vector<DataMsg> verified;
  verified.reserve(msg.messages.size());
  for (const util::Buffer& blob : msg.messages) {
    std::optional<Packet> parsed = core::parse_packet_shared(blob);
    DataMsg* data = parsed ? std::get_if<DataMsg>(&*parsed) : nullptr;
    if (data == nullptr || data->ttl != 1 || !in_requested_ranges(data->id)) {
      hooks_.suspect(from, fd::SuspicionReason::kProtocolViolation);
      fail_peer();
      return;
    }
    if (!pki_.verify(data->id.origin,
                     core::data_sign_bytes(data->id, data->payload),
                     data->sig) ||
        !pki_.verify(data->id.origin, core::gossip_sign_bytes(data->id),
                     data->gossip_sig)) {
      hooks_.suspect(from, fd::SuspicionReason::kBadSignature);
      fail_peer();
      return;
    }
    verified.push_back(std::move(*data));
  }
  retry_timer_.cancel();
  backoff_.reset();
  for (DataMsg& data : verified) {
    if (store_.accepted(data.id) || store_.has(data.id)) continue;
    ++admitted_;
    admitted_bytes_ += data.wire.size();
    hooks_.admit(data, from);
  }
  std::vector<PullRange> remaining = missing_ranges();
  std::uint64_t remaining_count = count_missing(remaining);
  last_missing_ = remaining_count;
  if (remaining.empty() || remaining_count == 0) {
    finish(true);
    return;
  }
  if (msg.last) {
    // The peer served everything it stores in our ranges; the residue is
    // unservable there (purged, or a probe past its tail). Count the
    // session done — the per-message gossip path still chases the rest.
    finish(true);
    return;
  }
  if (remaining_count >= last_pull_missing_) {
    // More pages promised but zero progress: a starving responder.
    // Failover rather than loop forever against it.
    fail_peer();
    return;
  }
  last_pull_missing_ = remaining_count;
  send_pull(remaining);
}

void SyncManager::poll_gauges(obs::GaugeVisitor& visitor) const {
  visitor.gauge("sync_state", static_cast<std::int64_t>(state_));
  visitor.gauge("sync_missing", static_cast<std::int64_t>(last_missing_));
  visitor.gauge("sync_admitted", static_cast<std::int64_t>(admitted_));
  visitor.gauge("sync_pulled_bytes",
                static_cast<std::int64_t>(admitted_bytes_));
  visitor.gauge("sync_failovers", static_cast<std::int64_t>(failovers_));
}

}  // namespace byzcast::sync
