#include "stats/metrics.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>

namespace byzcast::stats {

const char* msg_kind_name(MsgKind kind) {
  switch (kind) {
    case MsgKind::kData:
      return "DATA";
    case MsgKind::kGossip:
      return "GOSSIP";
    case MsgKind::kRequestMsg:
      return "REQUEST_MSG";
    case MsgKind::kFindMissingMsg:
      return "FIND_MISSING_MSG";
    case MsgKind::kHello:
      return "HELLO";
    case MsgKind::kOther:
      return "OTHER";
    case MsgKind::kFrontier:
      return "FRONTIER";
    case MsgKind::kBulkPull:
      return "BULK_PULL";
    case MsgKind::kBulkReply:
      return "BULK_REPLY";
  }
  return "?";
}

void Metrics::on_frame_sent(std::size_t bytes) {
  ++frames_sent_;
  frame_bytes_sent_ += bytes;
}
void Metrics::on_frame_offered(std::size_t bytes) {
  ++frames_offered_;
  frame_bytes_offered_ += bytes;
}
void Metrics::on_frame_delivered(std::size_t bytes) {
  ++frames_delivered_;
  frame_bytes_delivered_ += bytes;
}
void Metrics::on_frame_collided(std::size_t bytes) {
  ++frames_collided_;
  frame_bytes_collided_ += bytes;
}
void Metrics::on_frame_dropped(std::size_t bytes) {
  ++frames_dropped_;
  frame_bytes_dropped_ += bytes;
}

void Metrics::on_packet_sent(MsgKind kind, std::size_t bytes) {
  auto i = static_cast<std::size_t>(kind);
  ++packet_count_[i];
  packet_bytes_[i] += bytes;
}

void Metrics::on_recovery_bytes(std::size_t bytes) {
  ++recovery_packets_;
  recovery_bytes_ += bytes;
}

std::uint64_t Metrics::packets(MsgKind kind) const {
  return packet_count_[static_cast<std::size_t>(kind)];
}
std::uint64_t Metrics::packet_bytes(MsgKind kind) const {
  return packet_bytes_[static_cast<std::size_t>(kind)];
}
std::uint64_t Metrics::total_packets() const {
  std::uint64_t total = 0;
  for (auto c : packet_count_) total += c;
  return total;
}
std::uint64_t Metrics::total_packet_bytes() const {
  std::uint64_t total = 0;
  for (auto b : packet_bytes_) total += b;
  return total;
}

void Metrics::on_broadcast(MessageKey key, des::SimTime when,
                           std::size_t targets) {
  broadcasts_[key] = BroadcastRecord{when, targets, {}};
}

void Metrics::set_tracked_accepts(std::vector<NodeId> nodes) {
  tracked_.emplace(nodes.begin(), nodes.end());
}

void Metrics::on_accept(MessageKey key, NodeId node, des::SimTime when) {
  if (tracked_ && tracked_->count(node) == 0) return;
  auto it = broadcasts_.find(key);
  if (it == broadcasts_.end()) {
    ++unknown_accepts_;
    return;
  }
  auto [pos, inserted] = it->second.accepted.emplace(node, when);
  if (!inserted) {
    // A node whose volatile state was wiped by a crash-recover cycle may
    // re-accept what it accepted before the crash; the first accept
    // stands and the repeat is not a validity violation.
    if (crash_survivors_.count(node) == 0) ++duplicate_accepts_;
    return;
  }
  latency_.record(des::to_seconds(when - it->second.sent_at));
}

void Metrics::on_node_down(NodeId node, des::SimTime when) {
  auto [it, inserted] = down_since_.emplace(node, when);
  if (!inserted) return;  // already down
  ++downtime_events_;
}

void Metrics::on_node_up(NodeId node, des::SimTime when) {
  auto it = down_since_.find(node);
  if (it == down_since_.end()) return;  // was not down
  downtime_accum_ += when - it->second;
  down_since_.erase(it);
  crash_survivors_.insert(node);
  ++recoveries_returned_;
}

void Metrics::on_catchup_complete(NodeId /*node*/, des::SimDuration latency) {
  ++recoveries_completed_;
  catchup_latency_.record(des::to_seconds(latency));
}

double Metrics::node_seconds_down(des::SimTime now) const {
  des::SimDuration total = downtime_accum_;
  for (const auto& [node, since] : down_since_) {
    if (now > since) total += now - since;
  }
  return des::to_seconds(total);
}

double Metrics::node_seconds_available(des::SimTime now,
                                       std::size_t node_count) const {
  return static_cast<double>(node_count) * des::to_seconds(now) -
         node_seconds_down(now);
}

double Metrics::delivery_ratio() const {
  if (broadcasts_.empty()) return 0;
  double sum = 0;
  std::size_t counted = 0;
  for (const auto& [key, rec] : broadcasts_) {
    if (rec.targets == 0) continue;
    sum += static_cast<double>(rec.accepted.size()) /
           static_cast<double>(rec.targets);
    ++counted;
  }
  return counted == 0 ? 0 : sum / static_cast<double>(counted);
}

double Metrics::full_delivery_fraction() const {
  if (broadcasts_.empty()) return 0;
  std::size_t full = 0;
  std::size_t counted = 0;
  for (const auto& [key, rec] : broadcasts_) {
    if (rec.targets == 0) continue;
    ++counted;
    if (rec.accepted.size() >= rec.targets) ++full;
  }
  return counted == 0 ? 0
                      : static_cast<double>(full) / static_cast<double>(counted);
}

std::string snapshot(const Metrics& metrics) {
  // Fixed-width printf formatting keeps the dump locale-independent, and
  // every container iterated here is an ordered std::map, so equal metric
  // state always serialises to equal bytes.
  std::string out;
  char buf[192];
  auto emit = [&](const char* fmt, auto... args) {
    std::snprintf(buf, sizeof(buf), fmt, args...);
    out += buf;
  };
  emit("frames sent=%" PRIu64 " delivered=%" PRIu64 " collided=%" PRIu64
       " dropped=%" PRIu64 "\n",
       metrics.frames_sent(), metrics.frames_delivered(),
       metrics.frames_collided(), metrics.frames_dropped());
  for (std::size_t i = 0; i < kMsgKindCount; ++i) {
    auto kind = static_cast<MsgKind>(i);
    // The legacy kinds always print (their lines are part of the pinned
    // golden snapshot); sync kinds print only when traffic exists, so a
    // sync-disabled run snapshots byte-identically to pre-sync builds.
    if (i >= kLegacyMsgKindCount && metrics.packets(kind) == 0) continue;
    emit("packets %s count=%" PRIu64 " bytes=%" PRIu64 "\n",
         msg_kind_name(kind), metrics.packets(kind),
         metrics.packet_bytes(kind));
  }
  emit("accepts duplicate=%" PRIu64 " unknown=%" PRIu64 "\n",
       metrics.duplicate_accepts(), metrics.unknown_accepts());
  emit("lifecycle down_events=%" PRIu64 " recoveries=%" PRIu64
       " catchups=%" PRIu64 "\n",
       metrics.downtime_events(), metrics.recoveries_returned(),
       metrics.recoveries_completed());
  for (const auto& [key, rec] : metrics.records()) {
    emit("broadcast origin=%u seq=%u sent_at=%llu targets=%zu\n",
         static_cast<unsigned>(key.origin), static_cast<unsigned>(key.seq),
         static_cast<unsigned long long>(rec.sent_at), rec.targets);
    for (const auto& [node, when] : rec.accepted) {
      emit("  accept node=%u at=%llu\n", static_cast<unsigned>(node),
           static_cast<unsigned long long>(when));
    }
  }
  return out;
}

}  // namespace byzcast::stats
