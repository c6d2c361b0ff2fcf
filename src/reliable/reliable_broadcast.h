// Reliable FIFO broadcast with flow control, layered over the paper's
// semi-reliable primitive (footnote 4: "with this property it is possible
// to implement a reliable delivery mechanism. In order to bound the
// buffers used by such a mechanism, it is common to use flow control
// mechanisms").
//
// Two independent pieces:
//
//  * FifoReceiver — reorders the unordered accept() stream into
//    per-origin FIFO delivery: message (o, s) is handed to the
//    application only after (o, 0..s-1). Out-of-order arrivals (gossip
//    recovery regularly delivers seq s+1 before s) wait in a bounded
//    reorder buffer.
//
//  * ReliableBroadcaster — sender-side submission queue + sliding window.
//    At most `window` of this node's messages may be un-stable at its
//    neighbourhood (judged from the stability prefixes neighbours
//    advertise in HELLOs); further submissions queue, and `try_submit`
//    returns false when the queue is full — backpressure to the
//    application, which is exactly how the paper proposes bounding
//    buffers network-wide: a sender cannot race ahead of what its
//    neighbourhood has durably absorbed.
//
// Byzantine note: a neighbour can freeze the window by under-reporting
// its prefix forever. `stall_timeout` bounds the damage — a neighbour
// whose report lags the rest of the neighbourhood for longer than the
// timeout is ignored for flow-control purposes (it can still obtain the
// messages through the normal recovery path).
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>

#include "core/byzcast_node.h"
#include "net/timer.h"

namespace byzcast::reliable {

/// Reorders accepts into per-origin FIFO order.
class FifoReceiver {
 public:
  using Handler = std::function<void(NodeId origin, std::uint32_t seq,
                                     std::span<const std::uint8_t>)>;

  /// Installs itself as `node`'s accept handler. One FifoReceiver per
  /// node; it must outlive the node's last event.
  FifoReceiver(core::ByzcastNode& node, Handler handler);

  /// Messages buffered waiting for their predecessors.
  [[nodiscard]] std::size_t pending() const;
  /// Next sequence number to deliver for `origin`.
  [[nodiscard]] std::uint32_t next_seq(NodeId origin) const;

 private:
  void on_accept(const core::MessageId& id,
                 std::span<const std::uint8_t> payload);

  Handler handler_;
  struct PerOrigin {
    std::uint32_t next = 0;
    std::map<std::uint32_t, std::vector<std::uint8_t>> held;
  };
  std::map<NodeId, PerOrigin> origins_;
};

struct ReliableConfig {
  std::size_t window = 8;       ///< max un-stable own messages in flight
  std::size_t max_queue = 256;  ///< submissions held back by flow control
  des::SimDuration pump_period = des::millis(200);
  /// Ignore a neighbour's stability report for flow control after it lags
  /// this long behind the rest (Byzantine window-freezing bound).
  des::SimDuration stall_timeout = des::seconds(10);
};

/// Sender-side submission queue + stability-driven sliding window.
class ReliableBroadcaster {
 public:
  ReliableBroadcaster(net::Env& env, core::ByzcastNode& node,
                      ReliableConfig config);

  /// Queues `payload` for broadcast. Returns false (and drops nothing)
  /// when the flow-control queue is full — the application's signal to
  /// back off.
  bool try_submit(std::vector<std::uint8_t> payload);

  [[nodiscard]] std::size_t queued() const { return queue_.size(); }
  /// Own messages broadcast but not yet stable at the neighbourhood.
  [[nodiscard]] std::uint32_t in_flight() const;
  [[nodiscard]] std::uint64_t submitted() const { return submitted_; }
  [[nodiscard]] std::uint64_t broadcast_count() const { return sent_; }

  /// Lowest stability prefix for our messages across live, non-stalled
  /// neighbours (== our own sent count when there are no neighbours yet).
  [[nodiscard]] std::uint32_t stable_floor() const;

 private:
  void pump();

  net::Env& env_;
  core::ByzcastNode& node_;
  ReliableConfig config_;
  std::deque<std::vector<std::uint8_t>> queue_;
  std::uint64_t submitted_ = 0;
  std::uint64_t sent_ = 0;
  net::PeriodicTimer pump_timer_;
  // Last time each neighbour's reported prefix advanced, for stall
  // detection.
  mutable std::map<NodeId, std::pair<std::uint32_t, des::SimTime>> progress_;
};

}  // namespace byzcast::reliable
