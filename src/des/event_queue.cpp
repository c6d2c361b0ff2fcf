#include "des/event_queue.h"

#include <cassert>
#include <utility>

namespace byzcast::des {

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
  // Stale refs and ids of this slot stop matching. Skipping 0 on the wrap
  // keeps slot 0's ids nonzero: callers read id 0 as "nothing pending".
  if (++s.generation == 0) s.generation = 1;
  free_slots_.push_back(slot);
}

void EventQueue::prune_top() {
  while (!heap_.empty() && stale(heap_.top())) heap_.pop();
}

EventId EventQueue::schedule(SimTime at, std::function<void()> action) {
  const std::uint32_t slot = alloc_slot(std::move(action));
  const std::uint32_t generation = slab_[slot].generation;
  heap_.push(Ref{at, next_seq_++, slot, generation});
  ++live_count_;
  return id_of(slot, generation);
}

bool EventQueue::cancel(EventId id) {
  const auto slot = static_cast<std::uint32_t>(id >> 32);
  const auto generation = static_cast<std::uint32_t>(id & 0xffffffffu);
  if (slot >= slab_.size()) return false;
  Slab& s = slab_[slot];
  if (!s.live || s.generation != generation) return false;
  // The ref stays in the heap and is dropped once it surfaces: the moved
  // generation no longer matches. Only the action is torn down here.
  free_slot(slot);
  --live_count_;
  prune_top();
  return true;
}

EventQueue::Entry EventQueue::pop() {
  assert(!heap_.empty());
  const Ref ref = heap_.top();
  heap_.pop();
  Entry entry{ref.at, id_of(ref.slot, ref.generation),
              std::move(slab_[ref.slot].action)};
  free_slot(ref.slot);
  --live_count_;
  prune_top();
  return entry;
}

}  // namespace byzcast::des
