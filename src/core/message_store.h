// Per-node message buffer with timeout purging (paper §3.2.2: "we have
// chosen to use timeout based purging due to its simplicity") and the
// at-most-once accept bookkeeping the validity property requires.
//
// Stored messages back the recovery path (answering REQUEST_MSG /
// FIND_MISSING_MSG); §3.5 bounds the buffer at max_timeout·(n−1)·δ
// messages, and the purge timeout is the config knob realizing that
// bound. What has been accepted is kept apart and never purged, so a
// duplicate arriving after its buffer entry expired is still filtered.
// It is one record per origin: the contiguous prefix (every seq below it
// accepted) plus the ragged tail of accepted seqs above it. Accept
// checks, the stability prefixes of §3.2.2 and the range-sync frontier
// (DESIGN.md §11) all read that record, so its size follows the
// out-of-order accepts, not every message ever accepted.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <set>

#include <utility>
#include <vector>

#include "core/message.h"
#include "des/time.h"
#include "obs/gauge.h"

namespace byzcast::core {

class MessageStore : public obs::GaugeSource {
 public:
  struct Stored {
    DataMsg msg;
    des::SimTime received_at = 0;
    bool gossip_enqueued = false;  ///< lazycast started for this message
    des::SimTime last_reply = 0;   ///< last retransmission we sent
    /// Last time any copy was heard on the air (first receipt or a
    /// duplicate) — recovery replies are suppressed while a copy is
    /// fresh, the standard broadcast-storm damper.
    des::SimTime last_seen = 0;

    /// Serialized DATA bytes for this message at `ttl` (1 or 2), ready to
    /// hand straight to the radio. Seeded from the frame the message
    /// arrived in (DataMsg::wire) when the ttl matches, so a reply
    /// usually re-sends the original bytes; a ttl the store has never
    /// seen is serialized once on first use and cached.
    [[nodiscard]] util::Buffer wire(std::uint8_t ttl);

   private:
    friend class MessageStore;
    util::Buffer wire_by_ttl_[2];  // index ttl - 1
  };

  /// Inserts a verified message. Returns the entry stored under its id
  /// and whether this call stored it (false: an entry was already
  /// present, and that entry is returned), as std::map::emplace does.
  /// The pointer stays valid until the entry is purged or the store
  /// cleared.
  std::pair<Stored*, bool> insert(DataMsg msg, des::SimTime now);

  [[nodiscard]] bool has(const MessageId& id) const;
  /// Mutable access for reply bookkeeping; nullptr if absent/purged.
  [[nodiscard]] Stored* find(const MessageId& id);
  [[nodiscard]] const Stored* find(const MessageId& id) const;

  /// Marks `id` accepted. Returns true exactly once per id.
  bool mark_accepted(const MessageId& id);
  [[nodiscard]] bool accepted(const MessageId& id) const;
  /// How many of `origin`'s seqs in [from_seq, from_seq + count) (none
  /// past 2^32−1) are not accepted, in O(log tail + tail seqs in range).
  [[nodiscard]] std::uint64_t missing_in(NodeId origin, std::uint32_t from_seq,
                                         std::uint32_t count) const;

  /// Stability prefix for `origin`: the lowest sequence number NOT yet
  /// accepted — i.e. all of (origin, 0..prefix-1) have been accepted.
  /// It stops at 2^32−1: an accepted seq 2^32−1 stays in the tail.
  /// Drives the stability-detection purging of §3.2.2.
  [[nodiscard]] std::uint32_t stability_prefix(NodeId origin) const;
  /// All origins with a non-zero stability prefix, as (origin, prefix).
  [[nodiscard]] std::vector<std::pair<NodeId, std::uint32_t>>
  stability_vector() const;

  // --- range-sync queries (DESIGN.md §11) --------------------------------
  /// Per-origin sync frontier over the *accepted* record (which is never
  /// purged): one FrontierEntry per origin we accepted anything from,
  /// ascending origin, in O(origins + tail); at most the lowest
  /// kMaxFrontierEntries origins, all a FRONTIER may carry. Note a
  /// frontier can advertise messages whose stored bytes have since been
  /// purged; the responder then simply serves less than it advertised.
  [[nodiscard]] std::vector<FrontierEntry> frontier() const;
  /// Deterministic digest over the ragged accepted tail of `origin`
  /// (accepted seqs at or above its contiguous prefix, folded in
  /// ascending order); 0 when the tail is empty.
  [[nodiscard]] std::uint64_t tail_digest(NodeId origin) const;
  /// Stored entries of `origin` with from_seq <= seq < from_seq + count,
  /// ascending seq. Pointers are mutable because serving a range touches
  /// the per-ttl wire cache; they are invalidated by purge/clear.
  [[nodiscard]] std::vector<Stored*> stored_range(NodeId origin,
                                                  std::uint32_t from_seq,
                                                  std::uint32_t count);

  /// Drops stored messages received before `now - max_age`; accepted
  /// ids are kept.
  void purge(des::SimTime now, des::SimDuration max_age);

  /// Drops stored messages for which `stable` returns true (and which
  /// are older than `min_age`) — the §3.2.2 stability-detection purge.
  void purge_if(des::SimTime now, des::SimDuration min_age,
                const std::function<bool(const MessageId&)>& stable);

  /// Wipes everything — stored messages and the accepted record. Models
  /// a crash of the volatile memory the store lives in (fault injection's
  /// kCrashRecover); the at-most-once accept guarantee consequently only
  /// spans one node incarnation.
  void clear();

  [[nodiscard]] std::size_t size() const { return stored_.size(); }
  [[nodiscard]] std::size_t accepted_count() const;

  /// Gauges: buffered message count and cumulative accepted ids, sampled
  /// by the obs::Timeline.
  void poll_gauges(obs::GaugeVisitor& visitor) const override {
    visitor.gauge("store_size", static_cast<std::int64_t>(stored_.size()));
    visitor.gauge("accepted", static_cast<std::int64_t>(accepted_count()));
  }

 private:
  /// Everything accepted from one origin: every seq below `prefix`, and
  /// the seqs in `tail` (all of them above `prefix`, or equal to it once
  /// it has stopped at 2^32−1).
  struct Accepted {
    std::uint32_t prefix = 0;
    std::set<std::uint32_t> tail;
  };
  std::map<MessageId, Stored> stored_;
  std::map<NodeId, Accepted> accepted_;  // an entry per origin accepted from
};

}  // namespace byzcast::core
