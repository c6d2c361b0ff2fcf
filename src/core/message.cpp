#include "core/message.h"

#include "obs/profiler.h"

namespace byzcast::core {

namespace {

// Largest serialized DATA packet: type ‖ id ‖ ttl ‖ len ‖ payload ‖ two
// wire signatures. Bounds each blob a BULK_REPLY may embed.
constexpr std::size_t kMaxDataPacketBytes =
    1 + 8 + 1 + 4 + kMaxPayloadBytes + 2 * crypto::kWireSignatureBytes;

// Strict bool: only 0/1 are canonical. Any other byte must fail the
// parse, or an accepted packet would re-serialize to different bytes.
bool read_bool(util::ByteReader& r) {
  std::uint8_t v = r.u8();
  if (v > 1) r.fail();
  return v == 1;
}

void write_id(util::ByteWriter& w, const MessageId& id) {
  w.u32(id.origin);
  w.u32(id.seq);
}

MessageId read_id(util::ByteReader& r) {
  MessageId id;
  id.origin = r.u32();
  id.seq = r.u32();
  return id;
}

void write_entry(util::ByteWriter& w, const GossipEntry& e) {
  write_id(w, e.id);
  crypto::write_wire_signature(w, e.origin_sig);
}

GossipEntry read_entry(util::ByteReader& r) {
  GossipEntry e;
  e.id = read_id(r);
  e.origin_sig = crypto::read_wire_signature(r);
  return e;
}

void write_node_list(util::ByteWriter& w, const std::vector<NodeId>& nodes) {
  w.u32(static_cast<std::uint32_t>(nodes.size()));
  for (NodeId n : nodes) w.u32(n);
}

void write_stability(util::ByteWriter& w,
                     const std::vector<std::pair<NodeId, std::uint32_t>>& v) {
  w.u32(static_cast<std::uint32_t>(v.size()));
  for (const auto& [origin, prefix] : v) {
    w.u32(origin);
    w.u32(prefix);
  }
}

std::optional<std::vector<std::pair<NodeId, std::uint32_t>>> read_stability(
    util::ByteReader& r) {
  std::uint32_t count = r.u32();
  if (!r.ok() || count > kMaxStabilityEntries) return std::nullopt;
  std::vector<std::pair<NodeId, std::uint32_t>> v;
  v.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    NodeId origin = r.u32();
    std::uint32_t prefix = r.u32();
    v.emplace_back(origin, prefix);
  }
  if (!r.ok()) return std::nullopt;
  return v;
}

std::optional<std::vector<NodeId>> read_node_list(util::ByteReader& r) {
  std::uint32_t count = r.u32();
  if (!r.ok() || count > kMaxNeighborList) return std::nullopt;
  std::vector<NodeId> nodes;
  nodes.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) nodes.push_back(r.u32());
  if (!r.ok()) return std::nullopt;
  return nodes;
}

void write_frontier_entries(util::ByteWriter& w,
                            const std::vector<FrontierEntry>& entries) {
  w.u32(static_cast<std::uint32_t>(entries.size()));
  for (const FrontierEntry& e : entries) {
    w.u32(e.origin);
    w.u32(e.prefix);
    w.u64(e.tail_digest);
  }
}

std::optional<std::vector<FrontierEntry>> read_frontier_entries(
    util::ByteReader& r) {
  std::uint32_t count = r.u32();
  if (!r.ok() || count > kMaxFrontierEntries) return std::nullopt;
  std::vector<FrontierEntry> entries;
  entries.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    FrontierEntry e;
    e.origin = r.u32();
    e.prefix = r.u32();
    e.tail_digest = r.u64();
    entries.push_back(e);
  }
  if (!r.ok()) return std::nullopt;
  return entries;
}

void write_pull_ranges(util::ByteWriter& w,
                       const std::vector<PullRange>& ranges) {
  w.u32(static_cast<std::uint32_t>(ranges.size()));
  for (const PullRange& range : ranges) {
    w.u32(range.origin);
    w.u32(range.from_seq);
    w.u32(range.count);
  }
}

std::optional<std::vector<PullRange>> read_pull_ranges(util::ByteReader& r) {
  std::uint32_t count = r.u32();
  if (!r.ok() || count > kMaxPullRanges) return std::nullopt;
  std::vector<PullRange> ranges;
  ranges.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    PullRange range;
    range.origin = r.u32();
    range.from_seq = r.u32();
    range.count = r.u32();
    ranges.push_back(range);
  }
  if (!r.ok()) return std::nullopt;
  return ranges;
}

std::optional<HelloMsg> read_hello_fields(util::ByteReader& r) {
  HelloMsg hello;
  hello.from = r.u32();
  hello.active = read_bool(r);
  hello.dominator = read_bool(r);
  auto neighbors = read_node_list(r);
  auto dominator_neighbors = read_node_list(r);
  auto suspects = read_node_list(r);
  if (!neighbors || !dominator_neighbors || !suspects) return std::nullopt;
  hello.neighbors = std::move(*neighbors);
  hello.dominator_neighbors = std::move(*dominator_neighbors);
  hello.suspects = std::move(*suspects);
  auto stability = read_stability(r);
  if (!stability) return std::nullopt;
  hello.stability = std::move(*stability);
  hello.sig = crypto::read_wire_signature(r);
  return hello;
}

// One parser for both entry points. `source` is the shared buffer the
// bytes live in when parsing off the receive path (nullptr when parsing a
// transient view): with a source, a DataMsg borrows its payload as a
// slice and remembers the whole frame in `wire`; without one it copies.
std::optional<Packet> parse_packet_impl(std::span<const std::uint8_t> bytes,
                                        const util::Buffer* source) {
  BYZCAST_PROFILE(obs::ProfileCategory::kParse);
  util::ByteReader r(bytes);
  auto type = r.u8();
  if (!r.ok()) return std::nullopt;
  switch (static_cast<MsgType>(type)) {
    case MsgType::kData: {
      DataMsg m;
      m.id = read_id(r);
      m.ttl = r.u8();
      if (!r.ok()) return std::nullopt;
      std::size_t payload_offset = r.pos() + 4;  // past the length prefix
      std::span<const std::uint8_t> payload = r.bytes_view();
      if (!r.ok() || payload.size() > kMaxPayloadBytes) return std::nullopt;
      m.sig = crypto::read_wire_signature(r);
      m.gossip_sig = crypto::read_wire_signature(r);
      if (!r.done()) return std::nullopt;
      if (source != nullptr) {
        m.payload = source->slice(payload_offset, payload.size());
        m.wire = *source;
      } else {
        m.payload = util::Buffer::copy_of(payload);
      }
      return Packet{std::move(m)};
    }
    case MsgType::kGossip: {
      GossipMsg m;
      std::uint32_t count = r.u32();
      if (!r.ok() || count > kMaxGossipEntries) return std::nullopt;
      m.entries.reserve(count);
      for (std::uint32_t i = 0; i < count; ++i) {
        m.entries.push_back(read_entry(r));
      }
      std::uint8_t has_hello = r.u8();
      if (!r.ok() || has_hello > 1) return std::nullopt;
      if (has_hello == 1) {
        auto hello = read_hello_fields(r);
        if (!hello) return std::nullopt;
        m.hello = std::move(*hello);
      }
      if (!r.done()) return std::nullopt;
      return Packet{std::move(m)};
    }
    case MsgType::kRequestMsg: {
      RequestMsg m;
      m.entry = read_entry(r);
      m.target = r.u32();
      if (!r.done()) return std::nullopt;
      return Packet{std::move(m)};
    }
    case MsgType::kFindMissingMsg: {
      FindMissingMsg m;
      m.entry = read_entry(r);
      m.gossiper = r.u32();
      m.issuer = r.u32();
      m.ttl = r.u8();
      if (!r.done()) return std::nullopt;
      return Packet{std::move(m)};
    }
    case MsgType::kHello: {
      auto hello = read_hello_fields(r);
      if (!hello || !r.done()) return std::nullopt;
      return Packet{std::move(*hello)};
    }
    case MsgType::kFrontier: {
      FrontierMsg m;
      m.from = r.u32();
      m.target = r.u32();
      m.response = read_bool(r);
      m.nonce = r.u32();
      if (!r.ok()) return std::nullopt;
      auto entries = read_frontier_entries(r);
      if (!entries) return std::nullopt;
      m.entries = std::move(*entries);
      m.sig = crypto::read_wire_signature(r);
      if (!r.done()) return std::nullopt;
      return Packet{std::move(m)};
    }
    case MsgType::kBulkPull: {
      BulkPullMsg m;
      m.from = r.u32();
      m.target = r.u32();
      m.nonce = r.u32();
      if (!r.ok()) return std::nullopt;
      auto ranges = read_pull_ranges(r);
      if (!ranges) return std::nullopt;
      m.ranges = std::move(*ranges);
      m.sig = crypto::read_wire_signature(r);
      if (!r.done()) return std::nullopt;
      return Packet{std::move(m)};
    }
    case MsgType::kBulkReply: {
      BulkReplyMsg m;
      m.from = r.u32();
      m.target = r.u32();
      m.nonce = r.u32();
      m.last = read_bool(r);
      std::uint32_t count = r.u32();
      if (!r.ok() || count > kMaxBatchMessages) return std::nullopt;
      m.messages.reserve(count);
      for (std::uint32_t i = 0; i < count; ++i) {
        // Each blob is length-prefixed; the view read is bounds-checked
        // against the remaining frame, so a lying length field fails
        // before any blob allocation happens. Blobs are opaque here —
        // size-capped to a plausible DATA packet, verified by the sync
        // session — and with a shared source they are zero-copy slices.
        std::size_t blob_offset = r.pos() + 4;  // past the length prefix
        std::span<const std::uint8_t> blob = r.bytes_view();
        if (!r.ok() || blob.empty() || blob.size() > kMaxDataPacketBytes) {
          return std::nullopt;
        }
        m.messages.push_back(source != nullptr
                                 ? source->slice(blob_offset, blob.size())
                                 : util::Buffer::copy_of(blob));
      }
      m.sig = crypto::read_wire_signature(r);
      if (!r.done()) return std::nullopt;
      return Packet{std::move(m)};
    }
    default:
      return std::nullopt;
  }
}

}  // namespace

stats::MsgKind to_msg_kind(MsgType type) {
  switch (type) {
    case MsgType::kData:
      return stats::MsgKind::kData;
    case MsgType::kGossip:
      return stats::MsgKind::kGossip;
    case MsgType::kRequestMsg:
      return stats::MsgKind::kRequestMsg;
    case MsgType::kFindMissingMsg:
      return stats::MsgKind::kFindMissingMsg;
    case MsgType::kHello:
      return stats::MsgKind::kHello;
    case MsgType::kFrontier:
      return stats::MsgKind::kFrontier;
    case MsgType::kBulkPull:
      return stats::MsgKind::kBulkPull;
    case MsgType::kBulkReply:
      return stats::MsgKind::kBulkReply;
  }
  return stats::MsgKind::kOther;
}

std::vector<std::uint8_t> data_sign_bytes(
    const MessageId& id, std::span<const std::uint8_t> payload) {
  util::ByteWriter w(12 + payload.size());
  w.u8(static_cast<std::uint8_t>(MsgType::kData));
  write_id(w, id);
  w.raw(payload);
  return w.take();
}

std::vector<std::uint8_t> gossip_sign_bytes(const MessageId& id) {
  util::ByteWriter w(9);
  w.u8(static_cast<std::uint8_t>(MsgType::kGossip));
  write_id(w, id);
  return w.take();
}

std::vector<std::uint8_t> hello_sign_bytes(const HelloMsg& hello) {
  util::ByteWriter w;
  w.u8(static_cast<std::uint8_t>(MsgType::kHello));
  w.u32(hello.from);
  w.u8(hello.active ? 1 : 0);
  w.u8(hello.dominator ? 1 : 0);
  write_node_list(w, hello.neighbors);
  write_node_list(w, hello.dominator_neighbors);
  write_node_list(w, hello.suspects);
  write_stability(w, hello.stability);
  return w.take();
}

std::vector<std::uint8_t> frontier_sign_bytes(const FrontierMsg& msg) {
  util::ByteWriter w;
  w.u8(static_cast<std::uint8_t>(MsgType::kFrontier));
  w.u32(msg.from);
  w.u32(msg.target);
  w.u8(msg.response ? 1 : 0);
  w.u32(msg.nonce);
  write_frontier_entries(w, msg.entries);
  return w.take();
}

std::vector<std::uint8_t> bulk_pull_sign_bytes(const BulkPullMsg& msg) {
  util::ByteWriter w;
  w.u8(static_cast<std::uint8_t>(MsgType::kBulkPull));
  w.u32(msg.from);
  w.u32(msg.target);
  w.u32(msg.nonce);
  write_pull_ranges(w, msg.ranges);
  return w.take();
}

std::vector<std::uint8_t> bulk_reply_sign_bytes(const BulkReplyMsg& msg) {
  util::ByteWriter w;
  w.u8(static_cast<std::uint8_t>(MsgType::kBulkReply));
  w.u32(msg.from);
  w.u32(msg.target);
  w.u32(msg.nonce);
  w.u8(msg.last ? 1 : 0);
  w.u32(static_cast<std::uint32_t>(msg.messages.size()));
  for (const util::Buffer& blob : msg.messages) w.bytes(blob);
  return w.take();
}

MsgType packet_type(const Packet& packet) {
  return std::visit(
      [](const auto& p) -> MsgType {
        using T = std::decay_t<decltype(p)>;
        if constexpr (std::is_same_v<T, DataMsg>) return MsgType::kData;
        if constexpr (std::is_same_v<T, GossipMsg>) return MsgType::kGossip;
        if constexpr (std::is_same_v<T, RequestMsg>)
          return MsgType::kRequestMsg;
        if constexpr (std::is_same_v<T, FindMissingMsg>)
          return MsgType::kFindMissingMsg;
        if constexpr (std::is_same_v<T, HelloMsg>) return MsgType::kHello;
        if constexpr (std::is_same_v<T, FrontierMsg>)
          return MsgType::kFrontier;
        if constexpr (std::is_same_v<T, BulkPullMsg>)
          return MsgType::kBulkPull;
        if constexpr (std::is_same_v<T, BulkReplyMsg>)
          return MsgType::kBulkReply;
      },
      packet);
}

util::Buffer serialize(const Packet& packet) {
  BYZCAST_PROFILE(obs::ProfileCategory::kSerialize);
  util::ByteWriter w;
  w.u8(static_cast<std::uint8_t>(packet_type(packet)));
  std::visit(
      [&w](const auto& p) {
        using T = std::decay_t<decltype(p)>;
        if constexpr (std::is_same_v<T, DataMsg>) {
          write_id(w, p.id);
          w.u8(p.ttl);
          w.bytes(p.payload);
          crypto::write_wire_signature(w, p.sig);
          crypto::write_wire_signature(w, p.gossip_sig);
        } else if constexpr (std::is_same_v<T, GossipMsg>) {
          w.u32(static_cast<std::uint32_t>(p.entries.size()));
          for (const GossipEntry& e : p.entries) write_entry(w, e);
          w.u8(p.hello.has_value() ? 1 : 0);
          if (p.hello) {
            w.u32(p.hello->from);
            w.u8(p.hello->active ? 1 : 0);
            w.u8(p.hello->dominator ? 1 : 0);
            write_node_list(w, p.hello->neighbors);
            write_node_list(w, p.hello->dominator_neighbors);
            write_node_list(w, p.hello->suspects);
            write_stability(w, p.hello->stability);
            crypto::write_wire_signature(w, p.hello->sig);
          }
        } else if constexpr (std::is_same_v<T, RequestMsg>) {
          write_entry(w, p.entry);
          w.u32(p.target);
        } else if constexpr (std::is_same_v<T, FindMissingMsg>) {
          write_entry(w, p.entry);
          w.u32(p.gossiper);
          w.u32(p.issuer);
          w.u8(p.ttl);
        } else if constexpr (std::is_same_v<T, HelloMsg>) {
          w.u32(p.from);
          w.u8(p.active ? 1 : 0);
          w.u8(p.dominator ? 1 : 0);
          write_node_list(w, p.neighbors);
          write_node_list(w, p.dominator_neighbors);
          write_node_list(w, p.suspects);
          write_stability(w, p.stability);
          crypto::write_wire_signature(w, p.sig);
        } else if constexpr (std::is_same_v<T, FrontierMsg>) {
          w.u32(p.from);
          w.u32(p.target);
          w.u8(p.response ? 1 : 0);
          w.u32(p.nonce);
          write_frontier_entries(w, p.entries);
          crypto::write_wire_signature(w, p.sig);
        } else if constexpr (std::is_same_v<T, BulkPullMsg>) {
          w.u32(p.from);
          w.u32(p.target);
          w.u32(p.nonce);
          write_pull_ranges(w, p.ranges);
          crypto::write_wire_signature(w, p.sig);
        } else if constexpr (std::is_same_v<T, BulkReplyMsg>) {
          w.u32(p.from);
          w.u32(p.target);
          w.u32(p.nonce);
          w.u8(p.last ? 1 : 0);
          w.u32(static_cast<std::uint32_t>(p.messages.size()));
          for (const util::Buffer& blob : p.messages) w.bytes(blob);
          crypto::write_wire_signature(w, p.sig);
        }
      },
      packet);
  return w.take_buffer();
}

std::optional<Packet> parse_packet(std::span<const std::uint8_t> bytes) {
  return parse_packet_impl(bytes, nullptr);
}

std::optional<Packet> parse_packet_shared(const util::Buffer& bytes) {
  return parse_packet_impl(bytes.span(), &bytes);
}

}  // namespace byzcast::core
