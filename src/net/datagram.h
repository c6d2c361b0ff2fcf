// Wire format of one UDP datagram carrying one radio::Frame
// (DESIGN.md §13).
//
//   u32 magic 'BZC1' | u8 version (1) | u32 sender NodeId | payload...
//
// The payload is the exact frame buffer the protocol would have put on
// the air — the DES and UDP backends carry byte-identical packets; only
// this 9-byte envelope differs. Decoding is strict in the corruption-
// sweep sense (core/message.h): wrong magic, wrong version, or a
// truncated header rejects the datagram, and the decoder never throws —
// datagrams are peer-controlled input.
//
// Decoding reads the envelope in place and copies only an accepted
// frame's payload into an exact-size Buffer, so the socket can receive
// every datagram into one reusable scratch while parsed slices and the
// message store pin just the payload's bytes. A rejected datagram
// allocates nothing.
//
// The sender field is advisory: unlike the simulated Medium, UDP cannot
// enforce link-layer identity, so a Byzantine peer may stamp any id. That
// is exactly the paper's threat model — every protocol decision that
// matters is guarded by signatures, and the failure detectors treat the
// claimed sender as "whoever is speaking for this id".
#pragma once

#include <cstdint>
#include <optional>
#include <span>

#include "radio/packet.h"
#include "util/bytes.h"

namespace byzcast::net {

inline constexpr std::uint32_t kDatagramMagic = 0x31435A42;  // "BZC1" LE
inline constexpr std::uint8_t kDatagramVersion = 1;
inline constexpr std::size_t kDatagramHeaderBytes = 9;

/// Envelope a frame for the socket.
util::Buffer encode_datagram(NodeId sender, const util::Buffer& payload);

/// Strict decode; the frame's payload is an exact-size copy of the bytes
/// after the envelope (Buffer::copy_of, so util::BufferStats counts it).
/// nullopt on any malformation (short, bad magic, unknown version).
std::optional<radio::Frame> decode_datagram(
    std::span<const std::uint8_t> bytes);

}  // namespace byzcast::net
