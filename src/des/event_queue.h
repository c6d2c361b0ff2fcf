// Pending-event set shared by both clocks: the discrete-event kernel
// (des::Simulator) and the live loop's timers (net::IoLoop).
//
// Dispatches in strict (time, insertion sequence) order — the tie-break
// that makes simultaneous events fire in insertion order and runs
// deterministic. The order lives in one binary heap of (time, seq) refs;
// des_test cross-checks it against a reference ordered-map queue.
//
// Event state lives in a flat slab (indices are recycled through a free
// list, generation counters disambiguate reuse), so cancel is O(1) and a
// stale id — one that already fired or was cancelled — never matches the
// event that later reuses its slot. Cancellation stays lazy on the heap
// side: a cancelled ref stays where it is until it surfaces at the top,
// because protocol timers are cancelled far more often than they fire.
// The action itself is destroyed eagerly so captured resources release
// immediately.
#pragma once

#include <cstdint>
#include <functional>
#include <queue>
#include <vector>

#include "des/time.h"

namespace byzcast::des {

/// Handle for cancelling a scheduled event. 0 is never a valid id.
using EventId = std::uint64_t;

class EventQueue {
 public:
  /// Schedules `action` at absolute time `at`. Returns a cancellation id.
  EventId schedule(SimTime at, std::function<void()> action);

  /// Cancels a pending event. Returns false if already fired/cancelled.
  bool cancel(EventId id);

  [[nodiscard]] bool empty() const { return live_count_ == 0; }
  /// Live (scheduled, not yet fired or cancelled) events.
  [[nodiscard]] std::size_t size() const { return live_count_; }

  /// Time of the earliest pending event; undefined when empty().
  [[nodiscard]] SimTime next_time() const { return heap_.top().at; }

  struct Entry {
    SimTime at;
    EventId id;
    std::function<void()> action;
  };

  /// Removes and returns the earliest live event. Precondition: !empty().
  Entry pop();

 private:
  /// Slab slot holding one pending event's action. `generation` moves on
  /// every free (skipping 0, so no id is ever 0), so stale Refs left in
  /// the heap after a cancel are recognized and dropped lazily.
  struct Slab {
    std::function<void()> action;
    std::uint32_t generation = 1;
    bool live = false;
  };

  /// Lightweight reference to a slab slot, carrying the ordering key.
  struct Ref {
    SimTime at;
    std::uint64_t seq;
    std::uint32_t slot;
    std::uint32_t generation;
  };
  struct Later {
    bool operator()(const Ref& a, const Ref& b) const {
      if (a.at != b.at) return a.at > b.at;
      return a.seq > b.seq;
    }
  };

  [[nodiscard]] bool stale(const Ref& ref) const {
    const Slab& s = slab_[ref.slot];
    return !s.live || s.generation != ref.generation;
  }
  [[nodiscard]] static EventId id_of(std::uint32_t slot,
                                     std::uint32_t generation) {
    return (static_cast<EventId>(slot) << 32) | generation;
  }

  std::uint32_t alloc_slot(std::function<void()> action);
  void free_slot(std::uint32_t slot);
  /// Drops cancelled refs off the heap top. Run after every cancel and
  /// pop, it keeps the invariant: heap_ is empty or its top is live.
  void prune_top();

  std::vector<Slab> slab_;
  std::vector<std::uint32_t> free_slots_;
  std::priority_queue<Ref, std::vector<Ref>, Later> heap_;
  std::uint64_t next_seq_ = 0;
  std::size_t live_count_ = 0;
};

}  // namespace byzcast::des
