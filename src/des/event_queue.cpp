#include "des/event_queue.h"

#include <bit>
#include <cassert>
#include <utility>

namespace byzcast::des {

namespace {
constexpr std::uint64_t kSlotMask = 63;
}  // namespace

std::uint32_t EventQueue::alloc_slot(std::function<void()> action) {
  std::uint32_t slot;
  if (!free_slots_.empty()) {
    slot = free_slots_.back();
    free_slots_.pop_back();
  } else {
    slot = static_cast<std::uint32_t>(slab_.size());
    slab_.emplace_back();
  }
  Slab& s = slab_[slot];
  s.action = std::move(action);
  s.live = true;
  return slot;
}

void EventQueue::free_slot(std::uint32_t slot) {
  Slab& s = slab_[slot];
  s.action = nullptr;  // release captured resources eagerly
  s.live = false;
  ++s.generation;  // stale refs to this slot stop matching
  free_slots_.push_back(slot);
}

void EventQueue::insert_ref(const Ref& ref) {
  const SimTime tick = tick_of(ref.at);
  if (tick < cursor_) {
    // The wheel has already been advanced past this tick (a heap event
    // firing earlier scheduled something before the wheel's next slot);
    // the ready-heap restores exact (at, seq) order among these.
    ready_.push(ref);
    return;
  }
  for (unsigned level = 0; level < kLevels; ++level) {
    const unsigned shift = kSlotBits * (level + 1);
    if ((tick >> shift) == (cursor_ >> shift)) {
      const auto slot =
          static_cast<std::size_t>((tick >> (kSlotBits * level)) & kSlotMask);
      buckets_[level][slot].push_back(ref);
      occupancy_[level] |= 1ULL << slot;
      ++wheel_refs_;
      return;
    }
  }
  heap_.push(ref);  // beyond the wheel horizon: sparse far-future event
}

void EventQueue::prune_tops() {
  while (!ready_.empty() && stale(ready_.top())) ready_.pop();
  while (!heap_.empty() && stale(heap_.top())) heap_.pop();
}

void EventQueue::advance_wheel() {
  for (;;) {
    // Drain higher-level slots that cover the cursor's current windows, so
    // level 0 holds every entry of the current level-0 window before we
    // scan it. Top-down: a level-3 drain may refill the level-2/1 slots
    // drained next.
    for (unsigned level = kLevels - 1; level >= 1; --level) {
      const unsigned shift = kSlotBits * level;
      const auto idx = static_cast<std::size_t>((cursor_ >> shift) & kSlotMask);
      if ((occupancy_[level] & (1ULL << idx)) == 0) continue;
      std::vector<Ref> bucket = std::move(buckets_[level][idx]);
      buckets_[level][idx].clear();
      occupancy_[level] &= ~(1ULL << idx);
      for (const Ref& ref : bucket) {
        --wheel_refs_;
        if (stale(ref)) continue;
        insert_ref(ref);  // re-buckets at a strictly lower level
      }
    }

    // Scan level 0 for the earliest occupied slot at or after the cursor.
    const auto idx0 = static_cast<std::size_t>(cursor_ & kSlotMask);
    if (std::uint64_t mask = occupancy_[0] & (~0ULL << idx0); mask != 0) {
      const auto slot = static_cast<std::size_t>(std::countr_zero(mask));
      std::vector<Ref>& bucket = buckets_[0][slot];
      for (const Ref& ref : bucket) {
        --wheel_refs_;
        if (stale(ref)) continue;
        ready_.push(ref);
      }
      bucket.clear();
      occupancy_[0] &= ~(1ULL << slot);
      cursor_ = (cursor_ & ~kSlotMask) + slot + 1;
      return;
    }

    // Level 0 exhausted: jump the cursor to the next occupied higher-level
    // slot (its equality slot was drained above, so only strictly-later
    // slots remain) and cascade it down.
    bool jumped = false;
    for (unsigned level = 1; level < kLevels; ++level) {
      const unsigned shift = kSlotBits * level;
      const auto idx = static_cast<std::size_t>((cursor_ >> shift) & kSlotMask);
      std::uint64_t mask = occupancy_[level] & (~0ULL << idx);
      if (mask == 0) continue;
      const auto slot = static_cast<std::size_t>(std::countr_zero(mask));
      cursor_ = (((cursor_ >> shift) & ~kSlotMask) | slot) << shift;
      std::vector<Ref> bucket = std::move(buckets_[level][slot]);
      buckets_[level][slot].clear();
      occupancy_[level] &= ~(1ULL << slot);
      for (const Ref& ref : bucket) {
        --wheel_refs_;
        if (stale(ref)) continue;
        insert_ref(ref);
      }
      jumped = true;
      break;
    }
    if (!jumped) return;  // wheel holds nothing at or after the cursor
  }
}

void EventQueue::settle() {
  prune_tops();
  while (ready_.empty() && wheel_refs_ > 0) {
    advance_wheel();
    prune_tops();
  }
}

const EventQueue::Ref* EventQueue::peek() const {
  const Ref* best = nullptr;
  if (!ready_.empty()) best = &ready_.top();
  if (!heap_.empty()) {
    const Ref& h = heap_.top();
    if (best == nullptr || h.at < best->at ||
        (h.at == best->at && h.seq < best->seq)) {
      best = &h;
    }
  }
  return best;
}

EventId EventQueue::schedule(SimTime at, std::function<void()> action) {
  const std::uint32_t slot = alloc_slot(std::move(action));
  const Ref ref{at, next_seq_++, slot, slab_[slot].generation};
  insert_ref(ref);
  ++live_count_;
  return (static_cast<EventId>(slot) << 32) | slab_[slot].generation;
}

bool EventQueue::cancel(EventId id) {
  const auto slot = static_cast<std::uint32_t>(id >> 32);
  const auto generation = static_cast<std::uint32_t>(id & 0xffffffffu);
  if (slot >= slab_.size()) return false;
  Slab& s = slab_[slot];
  if (!s.live || s.generation != generation) return false;
  // The ref stays parked in its bucket or heap and is dropped lazily the
  // next time that structure is touched: the bumped generation no longer
  // matches. Only the action is torn down here.
  free_slot(slot);
  --live_count_;
  return true;
}

SimTime EventQueue::next_time() const {
  auto* self = const_cast<EventQueue*>(this);
  self->settle();
  const Ref* best = peek();
  assert(best != nullptr);
  return best->at;
}

EventQueue::Entry EventQueue::pop() {
  settle();
  const Ref* best = peek();
  assert(best != nullptr);
  const Ref ref = *best;
  if (!ready_.empty() && &ready_.top() == best) {
    ready_.pop();
  } else {
    heap_.pop();
  }
  Entry entry{ref.at, (static_cast<EventId>(ref.slot) << 32) | ref.generation,
              std::move(slab_[ref.slot].action)};
  free_slot(ref.slot);
  --live_count_;
  return entry;
}

}  // namespace byzcast::des
