#include "baselines/multi_overlay_node.h"

#include <algorithm>
#include <stdexcept>

#include "baselines/flooding_node.h"
#include "core/message.h"  // kMaxPayloadBytes: one payload cap for all stacks
#include "util/bytes.h"

namespace byzcast::baselines {

namespace {
constexpr std::uint8_t kCopyType = 0x11;
}  // namespace

namespace {

/// True when `cds` is a connected dominating set of the graph.
bool valid_cds(const std::vector<std::vector<std::size_t>>& adjacency,
               const std::set<NodeId>& cds) {
  const std::size_t n = adjacency.size();
  if (cds.empty()) return n <= 1;
  for (std::size_t v = 0; v < n; ++v) {
    if (cds.count(static_cast<NodeId>(v)) > 0) continue;
    bool covered = false;
    for (std::size_t u : adjacency[v]) {
      if (cds.count(static_cast<NodeId>(u)) > 0) {
        covered = true;
        break;
      }
    }
    if (!covered) return false;
  }
  std::set<NodeId> seen{*cds.begin()};
  std::vector<NodeId> stack{*cds.begin()};
  while (!stack.empty()) {
    NodeId u = stack.back();
    stack.pop_back();
    for (std::size_t v : adjacency[u]) {
      auto id = static_cast<NodeId>(v);
      if (cds.count(id) > 0 && seen.insert(id).second) stack.push_back(id);
    }
  }
  return seen.size() == cds.size();
}

}  // namespace

std::vector<std::set<NodeId>> compute_disjoint_overlays(
    const std::vector<std::vector<std::size_t>>& adjacency, int k) {
  const std::size_t n = adjacency.size();
  std::vector<bool> used(n, false);

  // One backbone from the still-unused nodes: BFS spanning tree of the
  // allowed-node subgraph, take its internal nodes, patch domination of
  // nodes outside the subgraph, then greedily prune. Robust where a pure
  // coverage-greedy gets stuck on sparse leftovers.
  auto build_one = [&]() -> std::set<NodeId> {
    std::size_t root = n;
    std::size_t best_degree = 0;
    for (std::size_t v = 0; v < n; ++v) {
      if (!used[v] && adjacency[v].size() >= best_degree) {
        best_degree = adjacency[v].size();
        root = v;
      }
    }
    const char* sparse_msg =
        "compute_disjoint_overlays: graph too sparse for another "
        "node-disjoint backbone";
    if (root == n) throw std::runtime_error(sparse_msg);

    // BFS over allowed nodes; remember parents.
    std::vector<std::size_t> parent(n, n);
    std::vector<bool> visited(n, false);
    std::vector<std::size_t> queue{root};
    visited[root] = true;
    std::set<NodeId> internal;
    for (std::size_t head = 0; head < queue.size(); ++head) {
      std::size_t u = queue[head];
      for (std::size_t v : adjacency[u]) {
        if (used[v] || visited[v]) continue;
        visited[v] = true;
        parent[v] = u;
        queue.push_back(v);
        internal.insert(static_cast<NodeId>(u));  // u has a tree child
      }
    }
    std::set<NodeId> cds = internal.empty()
                               ? std::set<NodeId>{static_cast<NodeId>(root)}
                               : internal;

    // Patch: every node (including used ones and allowed leaves) must
    // have a CDS neighbour or be in the CDS. Any allowed node is adjacent
    // to the tree, so adding it preserves connectivity.
    for (std::size_t v = 0; v < n; ++v) {
      if (cds.count(static_cast<NodeId>(v)) > 0) continue;
      bool covered = false;
      std::size_t allowed_neighbor = n;
      for (std::size_t u : adjacency[v]) {
        if (cds.count(static_cast<NodeId>(u)) > 0) {
          covered = true;
          break;
        }
        if (!used[u] && visited[u]) allowed_neighbor = u;
      }
      if (covered) continue;
      if (!used[v] && visited[v]) {
        cds.insert(static_cast<NodeId>(v));  // cover v with itself
      } else if (allowed_neighbor != n) {
        cds.insert(static_cast<NodeId>(allowed_neighbor));
      } else {
        throw std::runtime_error(sparse_msg);
      }
    }

    // Prune: drop members (smallest degree first) while the set stays a
    // valid CDS — keeps the baseline's per-broadcast cost honest.
    std::vector<NodeId> order(cds.begin(), cds.end());
    std::sort(order.begin(), order.end(), [&](NodeId a, NodeId b) {
      return adjacency[a].size() < adjacency[b].size();
    });
    for (NodeId v : order) {
      cds.erase(v);
      if (!valid_cds(adjacency, cds)) cds.insert(v);
    }
    if (!valid_cds(adjacency, cds)) throw std::runtime_error(sparse_msg);
    return cds;
  };

  std::vector<std::set<NodeId>> overlays;
  for (int i = 0; i < k; ++i) {
    std::set<NodeId> cds = build_one();
    for (NodeId v : cds) used[v] = true;
    overlays.push_back(std::move(cds));
  }
  return overlays;
}

util::Buffer MultiOverlayNode::serialize(const CopyPacket& packet) {
  util::ByteWriter w;
  w.u8(kCopyType);
  w.u8(packet.overlay);
  w.u32(packet.origin);
  w.u32(packet.seq);
  w.bytes(packet.payload);
  crypto::write_wire_signature(w, packet.sig);
  return w.take_buffer();
}

std::optional<MultiOverlayNode::CopyPacket> MultiOverlayNode::parse(
    const util::Buffer& bytes) {
  util::ByteReader r(bytes.span());
  if (r.u8() != kCopyType) return std::nullopt;
  CopyPacket packet;
  packet.overlay = r.u8();
  packet.origin = r.u32();
  packet.seq = r.u32();
  std::size_t payload_offset = r.pos() + 4;  // past the length prefix
  std::span<const std::uint8_t> payload = r.bytes_view();
  if (!r.ok() || payload.size() > core::kMaxPayloadBytes) return std::nullopt;
  packet.sig = crypto::read_wire_signature(r);
  if (!r.done()) return std::nullopt;
  packet.payload = bytes.slice(payload_offset, payload.size());
  packet.wire = bytes;
  return packet;
}

MultiOverlayNode::MultiOverlayNode(net::Env& env, net::Transport& transport,
                                   const crypto::Pki& pki,
                                   crypto::Signer signer,
                                   std::vector<bool> memberships,
                                   stats::Metrics* metrics)
    : env_(env),
      transport_(transport),
      pki_(pki),
      signer_(signer),
      memberships_(std::move(memberships)),
      metrics_(metrics) {
  if (memberships_.empty()) {
    throw std::invalid_argument("MultiOverlayNode: need at least 1 overlay");
  }
  transport_.set_receive_handler([this](const radio::Frame& frame) {
    std::optional<CopyPacket> packet = parse(frame.payload);
    if (packet) on_packet(*packet, frame.sender);
  });
}

void MultiOverlayNode::send_copy(const CopyPacket& packet) {
  // A forwarded copy re-sends the frame bytes it arrived in; only a
  // freshly built copy (or a new overlay tag) pays for a serialization.
  util::Buffer bytes =
      packet.wire.empty() ? serialize(packet) : packet.wire;
  if (metrics_ != nullptr) {
    metrics_->on_packet_sent(stats::MsgKind::kData, bytes.size());
  }
  transport_.send(std::move(bytes));
}

void MultiOverlayNode::broadcast(std::vector<std::uint8_t> payload) {
  CopyPacket packet;
  packet.origin = id();
  packet.seq = next_seq_++;
  packet.payload = std::move(payload);
  // Copies share the signature: it covers content, not the overlay tag.
  packet.sig = signer_.sign(FloodingNode::sign_bytes(
      packet.origin, packet.seq, packet.payload));
  accepted_.emplace(packet.origin, packet.seq);
  if (metrics_ != nullptr) {
    metrics_->on_broadcast(stats::MessageKey{packet.origin, packet.seq},
                           env_.now(), targets_);
  }
  // "Every message has to be sent f+1 times": one copy per overlay. The
  // wire bytes differ per copy (the overlay tag is on the wire), so each
  // gets its own serialization.
  for (std::size_t i = 0; i < memberships_.size(); ++i) {
    packet.overlay = static_cast<std::uint8_t>(i);
    packet.wire = serialize(packet);
    forwarded_.emplace(packet.origin, packet.seq, packet.overlay);
    send_copy(packet);
  }
}

void MultiOverlayNode::on_packet(const CopyPacket& packet, NodeId /*from*/) {
  if (packet.overlay >= memberships_.size()) return;
  if (!pki_.verify(packet.origin,
                   FloodingNode::sign_bytes(packet.origin, packet.seq,
                                            packet.payload),
                   packet.sig)) {
    return;
  }
  if (accepted_.emplace(packet.origin, packet.seq).second) {
    if (metrics_ != nullptr) {
      metrics_->on_accept(stats::MessageKey{packet.origin, packet.seq}, id(),
                          env_.now());
    }
    if (accept_handler_) {
      accept_handler_(packet.origin, packet.seq, packet.payload);
    }
  }
  // Forward along this overlay only if we are one of its backbone nodes.
  if (!memberships_[packet.overlay]) return;
  if (!forwarded_.emplace(packet.origin, packet.seq, packet.overlay).second) {
    return;
  }
  send_copy(packet);
}

}  // namespace byzcast::baselines
