// Lazycast gossip queue (paper §3: "lazycast initiates periodic
// broadcasting of the given message only to the immediate neighbors").
//
// Entries enqueued here are announced in the next `repeats` gossip-period
// flushes, aggregated into bundles of at most `max_entries_per_packet`
// (§1: "multiple gossip messages are aggregated into one packet, thereby
// greatly reducing the number of messages"). The queue is pure data; the
// owning node drives `flush()` from its gossip timer and transmits the
// returned bundles.
#pragma once

#include <cstdint>
#include <deque>
#include <vector>

#include "core/message.h"

namespace byzcast::core {

struct GossipQueueConfig {
  int repeats = 3;                         ///< announcements per entry
  std::size_t max_entries_per_packet = 32; ///< <= kMaxGossipEntries
};

class GossipQueue {
 public:
  /// Throws std::invalid_argument for a bound receivers would reject.
  explicit GossipQueue(GossipQueueConfig config);

  /// Starts lazycasting `entry`. Re-enqueueing an id already queued
  /// refreshes its remaining repeat count instead of duplicating it.
  void enqueue(const GossipEntry& entry);

  /// Builds the gossip packets for one period: every queued entry appears
  /// in exactly one returned bundle and its repeat count is decremented;
  /// exhausted entries are dropped from the queue.
  [[nodiscard]] std::vector<GossipMsg> flush();

  /// Drops everything (crash of the owning node's volatile state).
  void clear() { queue_.clear(); }

  [[nodiscard]] std::size_t pending() const { return queue_.size(); }

 private:
  struct Item {
    GossipEntry entry;
    int remaining = 0;
  };
  GossipQueueConfig config_;
  std::deque<Item> queue_;
};

}  // namespace byzcast::core
