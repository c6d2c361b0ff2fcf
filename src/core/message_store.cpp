#include "core/message_store.h"

namespace byzcast::core {

util::Buffer MessageStore::Stored::wire(std::uint8_t ttl) {
  if (ttl < 1 || ttl > 2) ttl = 1;
  util::Buffer& cached = wire_by_ttl_[ttl - 1];
  if (cached.empty()) {
    DataMsg copy = msg;
    copy.ttl = ttl;
    copy.wire = {};
    cached = serialize(Packet{std::move(copy)});
  }
  return cached;
}

std::pair<MessageStore::Stored*, bool> MessageStore::insert(
    DataMsg msg, des::SimTime now) {
  MessageId id = msg.id;
  Stored entry;
  entry.msg = std::move(msg);
  entry.received_at = now;
  entry.last_seen = now;
  // The frame bytes the message arrived (or went out) in serve as the
  // ready-made retransmission for the same ttl.
  if (!entry.msg.wire.empty() && entry.msg.ttl >= 1 && entry.msg.ttl <= 2) {
    entry.wire_by_ttl_[entry.msg.ttl - 1] = entry.msg.wire;
  }
  auto [it, inserted] = stored_.emplace(id, std::move(entry));
  return {&it->second, inserted};
}

bool MessageStore::has(const MessageId& id) const {
  return stored_.count(id) > 0;
}

MessageStore::Stored* MessageStore::find(const MessageId& id) {
  auto it = stored_.find(id);
  return it == stored_.end() ? nullptr : &it->second;
}

const MessageStore::Stored* MessageStore::find(const MessageId& id) const {
  auto it = stored_.find(id);
  return it == stored_.end() ? nullptr : &it->second;
}

bool MessageStore::mark_accepted(const MessageId& id) {
  constexpr std::uint32_t kLastSeq = UINT32_MAX;
  Accepted& from = accepted_[id.origin];
  if (id.seq < from.prefix) return false;
  if (id.seq != from.prefix || from.prefix == kLastSeq) {
    return from.tail.insert(id.seq).second;
  }
  // In order: advance the prefix over the tail seqs it now reaches.
  ++from.prefix;
  while (!from.tail.empty() && *from.tail.begin() == from.prefix &&
         from.prefix != kLastSeq) {
    from.tail.erase(from.tail.begin());
    ++from.prefix;
  }
  return true;
}

bool MessageStore::accepted(const MessageId& id) const {
  auto it = accepted_.find(id.origin);
  return it != accepted_.end() &&
         (id.seq < it->second.prefix || it->second.tail.count(id.seq) > 0);
}

std::size_t MessageStore::accepted_count() const {
  std::size_t count = 0;
  for (const auto& [origin, from] : accepted_) {
    count += from.prefix + from.tail.size();
  }
  return count;
}

std::uint32_t MessageStore::stability_prefix(NodeId origin) const {
  auto it = accepted_.find(origin);
  return it == accepted_.end() ? 0 : it->second.prefix;
}

std::vector<std::pair<NodeId, std::uint32_t>> MessageStore::stability_vector()
    const {
  std::vector<std::pair<NodeId, std::uint32_t>> out;
  out.reserve(accepted_.size());
  for (const auto& [origin, from] : accepted_) {
    if (from.prefix > 0) out.emplace_back(origin, from.prefix);
  }
  return out;
}

namespace {
// FNV-1a fold of one little-endian u32 — the tail digest primitive. Kept
// order-sensitive on purpose: tails are folded in ascending seq order, so
// equal digests mean equal tails for honest parties.
std::uint64_t fnv1a_u32(std::uint64_t h, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    h ^= (v >> (8 * i)) & 0xff;
    h *= 1099511628211ULL;
  }
  return h;
}

std::uint64_t digest(const std::set<std::uint32_t>& tail) {
  if (tail.empty()) return 0;
  std::uint64_t h = 14695981039346656037ULL;  // FNV offset basis
  for (std::uint32_t seq : tail) h = fnv1a_u32(h, seq);
  return h;
}
}  // namespace

std::uint64_t MessageStore::tail_digest(NodeId origin) const {
  auto it = accepted_.find(origin);
  return it == accepted_.end() ? 0 : digest(it->second.tail);
}

std::vector<FrontierEntry> MessageStore::frontier() const {
  std::vector<FrontierEntry> out;
  out.reserve(accepted_.size());
  for (const auto& [origin, from] : accepted_) {
    out.push_back(FrontierEntry{origin, from.prefix, digest(from.tail)});
  }
  return out;
}

std::vector<MessageStore::Stored*> MessageStore::stored_range(
    NodeId origin, std::uint32_t from_seq, std::uint32_t count) {
  std::vector<Stored*> out;
  std::uint64_t end = static_cast<std::uint64_t>(from_seq) + count;
  for (auto it = stored_.lower_bound({origin, from_seq});
       it != stored_.end() && it->first.origin == origin &&
       it->first.seq < end;
       ++it) {
    out.push_back(&it->second);
  }
  return out;
}

void MessageStore::purge_if(
    des::SimTime now, des::SimDuration min_age,
    const std::function<bool(const MessageId&)>& stable) {
  if (now < min_age) return;
  des::SimTime cutoff = now - min_age;
  std::erase_if(stored_, [&](const auto& entry) {
    return entry.second.received_at <= cutoff && stable(entry.first);
  });
}

void MessageStore::purge(des::SimTime now, des::SimDuration max_age) {
  if (now < max_age) return;
  des::SimTime cutoff = now - max_age;
  std::erase_if(stored_, [cutoff](const auto& entry) {
    return entry.second.received_at < cutoff;
  });
}

void MessageStore::clear() {
  stored_.clear();
  accepted_.clear();
}

}  // namespace byzcast::core
