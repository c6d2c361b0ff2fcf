#include "net/udp_backend.h"

#include <arpa/inet.h>
#include <cerrno>
#include <fcntl.h>
#include <sys/socket.h>
#include <unistd.h>

#include <stdexcept>

#include "net/datagram.h"

namespace byzcast::net {

namespace {
sockaddr_in make_addr(const std::string& host, std::uint16_t port) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    throw std::runtime_error("UdpTransport: bad IPv4 address: " + host);
  }
  return addr;
}

/// The kernel is momentarily out of buffer space — worth retrying;
/// everything else (unreachable, fd trouble) is not transient.
bool transient_send_error(int err) {
  return err == EAGAIN || err == EWOULDBLOCK || err == ENOBUFS;
}
}  // namespace

UdpTransport::UdpTransport(IoLoop& loop, NodeId self, const std::string& host,
                           std::uint16_t port,
                           const std::vector<UdpPeer>& peers)
    : loop_(loop),
      self_(self),
      rx_scratch_(std::make_unique_for_overwrite<std::uint8_t[]>(
          kRxScratchBytes)),
      retry_rng_(loop.split_rng()) {
  // Resolve every target before the socket exists, so a bad peer address
  // throws without leaking the fd.
  for (const UdpPeer& peer : peers) {
    if (peer.id == self_) continue;
    targets_.push_back(Target{peer.id, make_addr(peer.host, peer.port)});
  }
  sockaddr_in local = make_addr(host, port);
  fd_ = ::socket(AF_INET, SOCK_DGRAM, 0);
  if (fd_ < 0) throw std::runtime_error("UdpTransport: socket() failed");
  int flags = ::fcntl(fd_, F_GETFL, 0);
  ::fcntl(fd_, F_SETFL, flags | O_NONBLOCK);
  if (::bind(fd_, reinterpret_cast<const sockaddr*>(&local),
             sizeof(local)) != 0) {
    ::close(fd_);
    fd_ = -1;
    throw std::runtime_error("UdpTransport: bind(" + host + ":" +
                             std::to_string(port) + ") failed");
  }
  loop_.watch_fd(fd_, [this] { on_readable(); });
}

UdpTransport::~UdpTransport() {
  for (auto& [id, pending] : pending_) {
    if (pending.timer != 0) loop_.cancel(pending.timer);
  }
  if (fd_ >= 0) {
    loop_.unwatch_fd(fd_);
    ::close(fd_);
  }
}

void UdpTransport::send(util::Buffer payload) {
  util::Buffer datagram = encode_datagram(self_, payload);
  for (const Target& target : targets_) {
    if (wire_mangler_) {
      // Chaos path: the mangler gets its own mutable copy per target, so
      // corruption is independent per receiver (selective-broadcast).
      std::vector<std::uint8_t> bytes(datagram.data(),
                                      datagram.data() + datagram.size());
      wire_mangler_(bytes);
      send_to_target(target.id, target.addr,
                     util::Buffer(std::move(bytes)), 0);
    } else {
      send_to_target(target.id, target.addr, datagram, 0);
    }
  }
  ++sent_;
}

void UdpTransport::send_to_target(NodeId peer, const sockaddr_in& target,
                                  const util::Buffer& bytes,
                                  std::uint64_t pending_id) {
  ssize_t n = ::sendto(fd_, bytes.data(), bytes.size(), 0,
                       reinterpret_cast<const sockaddr*>(&target),
                       sizeof(target));
  if (n >= 0) {
    if (pending_id != 0) {
      pending_.erase(pending_id);
    }
    if (on_send_ok_) on_send_ok_(peer);
    return;
  }
  if (!transient_send_error(errno)) {
    // Hard error (unreachable peer, fd trouble): no retry will help.
    if (pending_id != 0) pending_.erase(pending_id);
    ++send_drops_;
    if (on_send_error_) on_send_error_(peer);
    return;
  }
  ++send_errors_;
  if (pending_id != 0) {
    // A retry failed again: back off further or give up.
    auto it = pending_.find(pending_id);
    if (it == pending_.end()) return;
    if (it->second.backoff.exhausted()) {
      give_up(pending_id);
    } else {
      arm_retry(pending_id);
    }
    return;
  }
  if (pending_.size() >= kMaxPending) {
    ++send_drops_;
    if (on_send_error_) on_send_error_(peer);
    return;
  }
  const std::uint64_t id = next_pending_id_++;
  PendingSend& pending = pending_[id];
  pending.peer = peer;
  pending.target = target;
  pending.bytes = bytes;
  pending.backoff = sync::Backoff(retry_policy_);
  arm_retry(id);
}

void UdpTransport::arm_retry(std::uint64_t id) {
  auto it = pending_.find(id);
  if (it == pending_.end()) return;
  PendingSend& pending = it->second;
  pending.timer = loop_.schedule_after(
      pending.backoff.next_delay(retry_rng_), [this, id] {
        auto entry = pending_.find(id);
        if (entry == pending_.end()) return;
        entry->second.timer = 0;
        ++send_retries_;
        send_to_target(entry->second.peer, entry->second.target,
                       entry->second.bytes, id);
      });
}

void UdpTransport::give_up(std::uint64_t id) {
  auto it = pending_.find(id);
  if (it == pending_.end()) return;
  const NodeId peer = it->second.peer;
  pending_.erase(it);
  ++send_drops_;
  if (on_send_error_) on_send_error_(peer);
}

void UdpTransport::set_receive_handler(ReceiveHandler handler) {
  handler_ = std::move(handler);
}

void UdpTransport::on_readable() {
  // Drain everything available: the loop's wait is level-triggered, but
  // one callback per datagram would cost a full loop turn each.
  for (;;) {
    ssize_t n = ::recv(fd_, rx_scratch_.get(), kRxScratchBytes, 0);
    if (n < 0) return;  // EAGAIN or error: nothing more to read
    // n == 0 is a legal zero-length datagram; it falls through the strict
    // decoder (too short) and counts as rejected like any other garbage.
    std::optional<radio::Frame> frame = decode_datagram(
        {rx_scratch_.get(), static_cast<std::size_t>(n)});
    if (!frame || frame->sender == self_) {
      ++rejected_;
      continue;
    }
    ++received_;
    if (frame_tap_) frame_tap_(frame->sender);
    if (handler_) handler_(*frame);
  }
}

}  // namespace byzcast::net
