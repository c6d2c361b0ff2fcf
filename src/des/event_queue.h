// Pending-event set for the discrete-event kernel.
//
// Dispatches in strict (time, insertion sequence) order — the tie-break
// that makes simultaneous events fire in insertion order and runs
// deterministic. A hierarchical timer wheel (kLevels levels of kSlots
// slots, tick = 2^kTickBits µs) absorbs the dense near-future load that
// periodic gossip/FD/sync timers produce (O(1) schedule and cancel),
// while a binary heap holds the sparse events beyond the wheel horizon
// (~4.7 sim-hours). Within a wheel tick, entries are ordered exactly by
// (time, sequence) through a small ready-heap. des_test cross-checks the
// dispatch order against a reference ordered-map queue.
//
// Event state lives in a flat slab (arena-style: indices are recycled
// through a free list, generation counters disambiguate reuse) instead of
// hash maps, so schedule/cancel/pop touch contiguous memory and
// cancellation is O(1). Cancellation stays lazy on the structure side —
// cancelled refs are dropped when a bucket or heap top is next touched —
// because protocol timers are cancelled far more often than they fire;
// the action itself is destroyed eagerly so captured resources release
// immediately, as before.
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
  [[nodiscard]] std::size_t size() const { return live_count_; }

  /// Time of the earliest pending event; undefined when empty().
  [[nodiscard]] SimTime next_time() const;

  struct Entry {
    SimTime at;
    EventId id;
    std::function<void()> action;
  };

  /// Removes and returns the earliest live event. Precondition: !empty().
  Entry pop();

 private:
  // Wheel geometry: 2^kTickBits µs per level-0 tick (~1 ms), kSlots slots
  // per level. Level k's window spans kSlots^(k+1) ticks around the
  // cursor; anything beyond level kLevels-1's window goes to the heap.
  static constexpr unsigned kTickBits = 10;
  static constexpr unsigned kSlotBits = 6;
  static constexpr std::size_t kSlots = 1u << kSlotBits;  // 64
  static constexpr unsigned kLevels = 4;

  /// Arena slot holding one pending event's action. `generation` bumps on
  /// every free, so stale Refs left in buckets or heaps after a cancel
  /// are recognized and dropped lazily.
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
  using RefHeap = std::priority_queue<Ref, std::vector<Ref>, Later>;

  [[nodiscard]] bool stale(const Ref& ref) const {
    const Slab& s = slab_[ref.slot];
    return !s.live || s.generation != ref.generation;
  }
  [[nodiscard]] static SimTime tick_of(SimTime at) { return at >> kTickBits; }

  std::uint32_t alloc_slot(std::function<void()> action);
  void free_slot(std::uint32_t slot);
  /// Routes a ref to ready/wheel/heap relative to the current cursor.
  void insert_ref(const Ref& ref);
  /// Drops stale refs off the tops of ready_/heap_.
  void prune_tops();
  /// Moves the earliest occupied wheel slot into ready_, cascading
  /// higher-level slots down as the cursor crosses their windows.
  void advance_wheel();
  /// Ensures the next live event is at the top of ready_ or heap_.
  void settle();
  [[nodiscard]] const Ref* peek() const;

  std::vector<Slab> slab_;
  std::vector<std::uint32_t> free_slots_;

  // Wheel state. buckets_[level][slot] holds refs whose tick falls in
  // that slot of the cursor's current level window; occupancy_[level]
  // mirrors bucket non-emptiness for O(1) scans.
  std::vector<Ref> buckets_[kLevels][kSlots];
  std::uint64_t occupancy_[kLevels] = {};
  SimTime cursor_ = 0;          ///< next unprocessed level-0 tick
  std::size_t wheel_refs_ = 0;  ///< physical refs parked in buckets_

  RefHeap ready_;  ///< refs with tick < cursor_, exact (at, seq) order
  RefHeap heap_;   ///< far-future refs beyond the wheel horizon

  std::uint64_t next_seq_ = 0;
  std::size_t live_count_ = 0;
};

}  // namespace byzcast::des
