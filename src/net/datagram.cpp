#include "net/datagram.h"

namespace byzcast::net {

util::Buffer encode_datagram(NodeId sender, const util::Buffer& payload) {
  util::ByteWriter w(kDatagramHeaderBytes + payload.size());
  w.u32(kDatagramMagic);
  w.u8(kDatagramVersion);
  w.u32(sender);
  w.raw(payload);
  return w.take_buffer();
}

std::optional<radio::Frame> decode_datagram(
    std::span<const std::uint8_t> bytes) {
  util::ByteReader r(bytes);
  if (r.u32() != kDatagramMagic) return std::nullopt;
  if (r.u8() != kDatagramVersion) return std::nullopt;
  NodeId sender = r.u32();
  if (!r.ok()) return std::nullopt;
  radio::Frame frame;
  frame.sender = sender;
  frame.payload = util::Buffer::copy_of(bytes.subspan(r.pos()));
  return frame;
}

}  // namespace byzcast::net
