// Baseline 1: classic flooding (paper §1, [45]).
//
// "The sender sends the message to everyone in its transmission range.
// Each device that receives a message for the first time delivers it to
// the application and also forwards it to all other devices in its
// range." Messages are signed and verified exactly like the main
// protocol's, so the comparison measures dissemination strategy, not
// crypto: flooding is trivially Byzantine-tolerant (every correct node
// forwards) but pays for it in message count and collisions.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <set>
#include <vector>

#include "crypto/signature.h"
#include "net/env.h"
#include "net/transport.h"
#include "stats/metrics.h"

namespace byzcast::baselines {

class FloodingNode {
 public:
  using AcceptHandler = std::function<void(
      NodeId origin, std::uint32_t seq, std::span<const std::uint8_t>)>;

  FloodingNode(net::Env& env, net::Transport& transport,
               const crypto::Pki& pki, crypto::Signer signer,
               stats::Metrics* metrics = nullptr);
  virtual ~FloodingNode() = default;
  FloodingNode(const FloodingNode&) = delete;
  FloodingNode& operator=(const FloodingNode&) = delete;

  void broadcast(std::vector<std::uint8_t> payload);
  void set_accept_handler(AcceptHandler handler) {
    accept_handler_ = std::move(handler);
  }
  void set_expected_targets(std::size_t targets) { targets_ = targets; }

  [[nodiscard]] NodeId id() const { return signer_.id(); }

  /// Flood packet wire format (shared with the multi-overlay baseline's
  /// per-overlay copies): origin ‖ seq ‖ payload ‖ sig.
  struct FloodPacket {
    NodeId origin = kInvalidNode;
    std::uint32_t seq = 0;
    util::Buffer payload;
    crypto::Signature sig;
    /// Serialized bytes of this packet — the frame it arrived in, or the
    /// buffer it was serialized into. Forwarding re-sends these verbatim.
    util::Buffer wire;
  };
  static util::Buffer serialize(const FloodPacket& packet);
  /// Parses from a shared buffer; the packet borrows its payload and
  /// keeps `bytes` as its wire form (see core::parse_packet_shared).
  static std::optional<FloodPacket> parse(const util::Buffer& bytes);
  static std::vector<std::uint8_t> sign_bytes(
      NodeId origin, std::uint32_t seq, std::span<const std::uint8_t> payload);

 protected:
  /// Overridden by Byzantine variants (e.g. drop instead of forward).
  virtual void on_packet(const FloodPacket& packet, NodeId from);

  net::Env& env_;
  net::Transport& transport_;
  const crypto::Pki& pki_;
  crypto::Signer signer_;
  stats::Metrics* metrics_;
  AcceptHandler accept_handler_;
  std::size_t targets_ = 0;
  std::uint32_t next_seq_ = 0;
  std::set<std::pair<NodeId, std::uint32_t>> seen_;

  void send_flood(const FloodPacket& packet);
};

}  // namespace byzcast::baselines
