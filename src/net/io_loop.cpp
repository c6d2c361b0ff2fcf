#include "net/io_loop.h"

#include <poll.h>

#include <algorithm>
#include <chrono>
#include <ctime>
#include <vector>

namespace byzcast::net {

namespace {
std::uint64_t steady_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}
}  // namespace

IoLoop::IoLoop(std::uint64_t seed) : start_ns_(steady_ns()), root_rng_(seed) {}

des::SimTime IoLoop::now() const { return (steady_ns() - start_ns_) / 1000; }

TimerId IoLoop::schedule_after(des::SimDuration delay,
                               std::function<void()> action) {
  return timers_.schedule(now() + delay, std::move(action));
}

bool IoLoop::cancel(TimerId id) { return timers_.cancel(id); }

void IoLoop::watch_fd(int fd, FdHandler on_readable) {
  fd_handlers_[fd] = std::move(on_readable);
}

void IoLoop::unwatch_fd(int fd) { fd_handlers_.erase(fd); }

std::size_t IoLoop::fire_due() {
  std::size_t fired = 0;
  const des::SimTime at = now();
  while (!timers_.empty() && timers_.next_time() <= at && !stopped_) {
    timers_.pop().action();
    ++fired;
  }
  return fired;
}

std::int64_t IoLoop::next_timer_wait_us(des::SimTime at) const {
  if (timers_.empty()) return -1;
  const des::SimTime fire = timers_.next_time();
  return fire <= at ? 0 : static_cast<std::int64_t>(fire - at);
}

std::size_t IoLoop::run_for(des::SimDuration duration) {
  stopped_ = false;
  std::size_t dispatched = 0;
  const bool bounded = duration != 0;
  const des::SimTime deadline = now() + duration;
  while (!stopped_) {
    dispatched += fire_due();
    if (stopped_) break;
    // One clock read serves the deadline check and both waits, so the
    // time left can never go negative between them.
    const des::SimTime at = now();
    if (bounded && at >= deadline) break;

    std::int64_t wait_us = next_timer_wait_us(at);
    if (bounded) {
      const auto left_us = static_cast<std::int64_t>(deadline - at);
      wait_us = wait_us < 0 ? left_us : std::min(wait_us, left_us);
    } else if (wait_us < 0 && fd_handlers_.empty()) {
      break;  // nothing to wait for, ever
    }

    std::vector<pollfd> fds;
    fds.reserve(fd_handlers_.size());
    for (const auto& [fd, handler] : fd_handlers_) {
      fds.push_back(pollfd{fd, POLLIN, 0});
    }
    const timespec wait{static_cast<std::time_t>(wait_us / 1'000'000),
                        static_cast<long>(wait_us % 1'000'000) * 1000};
    int ready = ::ppoll(fds.data(), static_cast<nfds_t>(fds.size()),
                        wait_us < 0 ? nullptr : &wait, nullptr);
    if (ready > 0) {
      for (const pollfd& p : fds) {
        if ((p.revents & (POLLIN | POLLERR | POLLHUP)) == 0) continue;
        auto it = fd_handlers_.find(p.fd);
        if (it == fd_handlers_.end()) continue;  // unwatched mid-dispatch
        it->second();
        ++dispatched;
        if (stopped_) break;
      }
    }
  }
  return dispatched;
}

std::size_t IoLoop::run() { return run_for(0); }

}  // namespace byzcast::net
