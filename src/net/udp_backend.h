// Live net::Transport over UDP sockets (DESIGN.md §13, §14).
//
// The wireless broadcast primitive is emulated by unicast fan-out: one
// send() writes the same encoded datagram (net/datagram.h) to every
// configured peer endpoint. On localhost this mirrors the all-in-range
// Medium the byzcastd cross-check runs against; in a real deployment the
// peer list is whatever neighbourhood discovery provides.
//
// The socket is nonblocking and owned by the transport; readability is
// dispatched through the IoLoop's fd watcher, so receive callbacks run on
// the same single thread as timers — the protocol never sees concurrency.
// Malformed datagrams (failed strict decode) and self-addressed ones are
// dropped and counted, never surfaced. Every datagram is received into
// one 64 KiB scratch the transport owns; decode_datagram copies an
// accepted frame's payload out of it into an exact-size Buffer, so what
// the protocol keeps pins only the payload's bytes.
//
// Transient send errors (EAGAIN/ENOBUFS — the kernel's socket or device
// queue is momentarily full) no longer vanish: the datagram is queued per
// target and retried on a jittered exponential backoff (sync::Backoff).
// Exhausted retries surface to the send-error listener so PeerHealth can
// account them per peer. Counters: send_errors (transient failures seen),
// send_retries (retry attempts made), send_drops (datagrams abandoned
// after the retry budget or queue overflow).
#pragma once

#include <netinet/in.h>

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "net/io_loop.h"
#include "net/transport.h"
#include "sync/backoff.h"

namespace byzcast::net {

/// One peer endpoint (IPv4 host:port).
struct UdpPeer {
  NodeId id = kInvalidNode;
  std::string host;
  std::uint16_t port = 0;
};

class UdpTransport final : public Transport {
 public:
  /// Invoked on the *claimed* sender id of every accepted ingress frame
  /// (after the strict decode), before the receive handler. Feed for
  /// PeerHealth::on_frame_from.
  using FrameTap = std::function<void(NodeId)>;
  /// Invoked per target when a datagram is abandoned (retry budget spent
  /// or retry queue full) / when a send to that target succeeds.
  using SendListener = std::function<void(NodeId)>;
  /// Chaos hook: may mutate the encoded datagram bytes of one egress copy
  /// before sendto (wire-level corruption; exercises the receiver's
  /// strict 'BZC1' decode). Applied per target, so per-receiver
  /// corruption is expressible.
  using WireMangler = std::function<void(std::vector<std::uint8_t>&)>;

  /// Binds `host:port` and registers with `loop`. Peers listed with our
  /// own id are skipped (loopback duplicates). Throws std::runtime_error
  /// on socket/bind failure or a peer address that is not IPv4.
  UdpTransport(IoLoop& loop, NodeId self, const std::string& host,
               std::uint16_t port, const std::vector<UdpPeer>& peers);
  ~UdpTransport() override;

  void send(util::Buffer payload) override;
  void set_receive_handler(ReceiveHandler handler) override;
  [[nodiscard]] NodeId local_id() const override { return self_; }

  void set_frame_tap(FrameTap tap) { frame_tap_ = std::move(tap); }
  void set_send_error_listener(SendListener cb) {
    on_send_error_ = std::move(cb);
  }
  void set_send_ok_listener(SendListener cb) { on_send_ok_ = std::move(cb); }
  void set_wire_mangler(WireMangler mangler) {
    wire_mangler_ = std::move(mangler);
  }
  /// Retry policy for transient send errors (defaults: 2ms base, 50ms
  /// cap, 6 attempts). Set before traffic flows.
  void set_retry_policy(sync::BackoffPolicy policy) { retry_policy_ = policy; }

  /// send() calls made. Each one is fanned out as one datagram per
  /// target, so this is not comparable with datagrams_received().
  [[nodiscard]] std::uint64_t datagrams_sent() const { return sent_; }
  /// Datagrams accepted by the strict decoder and handed on.
  [[nodiscard]] std::uint64_t datagrams_received() const { return received_; }
  /// Datagrams dropped by the strict decoder (short, bad magic/version)
  /// or because they claim our own id.
  [[nodiscard]] std::uint64_t datagrams_rejected() const { return rejected_; }
  /// Transient sendto failures (EAGAIN/ENOBUFS) observed.
  [[nodiscard]] std::uint64_t send_errors() const { return send_errors_; }
  /// Backoff-scheduled re-sends attempted.
  [[nodiscard]] std::uint64_t send_retries() const { return send_retries_; }
  /// Datagram copies abandoned (budget exhausted or queue overflow).
  [[nodiscard]] std::uint64_t send_drops() const { return send_drops_; }
  [[nodiscard]] std::size_t pending_retries() const {
    return pending_.size();
  }

 private:
  struct PendingSend {
    NodeId peer = kInvalidNode;
    sockaddr_in target{};
    util::Buffer bytes;
    sync::Backoff backoff;
    TimerId timer = 0;
  };
  /// Retry-queue cap; beyond it new transient failures are dropped
  /// immediately (bounded memory under persistent congestion).
  static constexpr std::size_t kMaxPending = 128;
  /// Receive scratch size: above the 65 507-byte IPv4 UDP maximum, so no
  /// datagram is truncated.
  static constexpr std::size_t kRxScratchBytes = 65536;

  void on_readable();
  /// One sendto; on transient failure enqueues a retry. `pending_id` != 0
  /// marks a retry attempt of an existing queue entry.
  void send_to_target(NodeId peer, const sockaddr_in& target,
                      const util::Buffer& bytes, std::uint64_t pending_id);
  void arm_retry(std::uint64_t id);
  void give_up(std::uint64_t id);

  IoLoop& loop_;
  NodeId self_;
  int fd_ = -1;
  // Pre-resolved peer targets (self excluded), built once in the ctor.
  struct Target {
    NodeId id = kInvalidNode;
    sockaddr_in addr{};
  };
  std::vector<Target> targets_;
  // Every datagram is recv'd here. Left uninitialised: zero-filling 64
  // KiB per socket would slow fleet set-up for bytes recv overwrites.
  std::unique_ptr<std::uint8_t[]> rx_scratch_;
  ReceiveHandler handler_;
  FrameTap frame_tap_;
  SendListener on_send_error_;
  SendListener on_send_ok_;
  WireMangler wire_mangler_;
  sync::BackoffPolicy retry_policy_{des::millis(2), des::millis(50), 0.25,
                                    /*jitter_from_attempt=*/0,
                                    /*max_attempts=*/6};
  des::Rng retry_rng_;
  std::map<std::uint64_t, PendingSend> pending_;
  std::uint64_t next_pending_id_ = 1;
  std::uint64_t sent_ = 0;
  std::uint64_t received_ = 0;
  std::uint64_t rejected_ = 0;
  std::uint64_t send_errors_ = 0;
  std::uint64_t send_retries_ = 0;
  std::uint64_t send_drops_ = 0;
};

}  // namespace byzcast::net
