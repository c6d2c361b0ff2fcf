#include "core/gossip.h"

#include <stdexcept>

namespace byzcast::core {

GossipQueue::GossipQueue(GossipQueueConfig config) : config_(config) {
  if (config_.max_entries_per_packet > kMaxGossipEntries) {
    throw std::invalid_argument("GossipQueue: bundles over kMaxGossipEntries");
  }
}

void GossipQueue::enqueue(const GossipEntry& entry) {
  for (Item& item : queue_) {
    if (item.entry.id == entry.id) {
      item.remaining = config_.repeats;
      return;
    }
  }
  queue_.push_back(Item{entry, config_.repeats});
}

std::vector<GossipMsg> GossipQueue::flush() {
  std::vector<GossipMsg> packets;
  GossipMsg current;
  for (Item& item : queue_) {
    current.entries.push_back(item.entry);
    --item.remaining;
    if (current.entries.size() >= config_.max_entries_per_packet) {
      packets.push_back(std::move(current));
      current = {};
    }
  }
  if (!current.entries.empty()) packets.push_back(std::move(current));
  std::erase_if(queue_, [](const Item& item) { return item.remaining <= 0; });
  return packets;
}

}  // namespace byzcast::core
