// Live net::Env: a ppoll(2) event loop with real timers (DESIGN.md §13).
//
// Single-threaded, like the DES: callbacks (timer firings and fd
// readability) are dispatched sequentially from run_for()/run(), so
// protocol components keep the no-locks concurrency model they were
// written under. now() is the steady_clock microsecond count since the
// loop was constructed — the same integer microseconds as virtual time,
// so every timeout constant in ProtocolConfig means the same thing on
// both backends.
//
// Timers live in a des::EventQueue, the same pending-event set the DES
// kernel dispatches from: due timers fire in (time, insertion sequence)
// order and ids are des::EventIds (never 0, and a fired or cancelled id
// never cancels a later timer), so net timers work identically over
// either Env. Between dispatches the loop sleeps in ppoll on a
// microsecond timespec until the next timer or the run_for() deadline,
// so a timer fires within the kernel's timer slack (about 50 us), not
// rounded up to a whole millisecond.
//
// split_rng() derives deterministic sub-streams from the boot seed —
// a daemon seeds from entropy, tests from a fixed seed, and either way
// the per-component stream discipline of the DES carries over.
#pragma once

#include <cstdint>
#include <functional>
#include <unordered_map>

#include "des/event_queue.h"
#include "des/rng.h"
#include "net/env.h"

namespace byzcast::net {

class IoLoop final : public Env {
 public:
  using FdHandler = std::function<void()>;

  explicit IoLoop(std::uint64_t seed);
  IoLoop(const IoLoop&) = delete;
  IoLoop& operator=(const IoLoop&) = delete;

  // --- Env ------------------------------------------------------------------
  [[nodiscard]] des::SimTime now() const override;
  TimerId schedule_after(des::SimDuration delay,
                         std::function<void()> action) override;
  bool cancel(TimerId id) override;
  des::Rng split_rng() override { return root_rng_.split(); }

  // --- fd watching ----------------------------------------------------------
  /// Invokes `on_readable` from the loop whenever `fd` has data. One
  /// handler per fd; re-watching replaces it.
  void watch_fd(int fd, FdHandler on_readable);
  void unwatch_fd(int fd);

  // --- driving --------------------------------------------------------------
  /// Dispatches timers and fd events until `duration` of wall time has
  /// elapsed or stop() is called. Returns callbacks dispatched.
  std::size_t run_for(des::SimDuration duration);
  /// run_for(forever) — until stop().
  std::size_t run();
  /// Makes the innermost run()/run_for() return after the current
  /// callback. Safe to call from inside a callback.
  void stop() { stopped_ = true; }

  [[nodiscard]] std::size_t pending_timers() const { return timers_.size(); }

 private:
  /// Fires every due timer; returns count dispatched.
  std::size_t fire_due();
  /// Microseconds from `at` until the earliest pending timer (0 when
  /// due), or -1 when none is pending (wait for fds alone).
  [[nodiscard]] std::int64_t next_timer_wait_us(des::SimTime at) const;

  std::uint64_t start_ns_;
  des::Rng root_rng_;
  des::EventQueue timers_;
  std::unordered_map<int, FdHandler> fd_handlers_;
  bool stopped_ = false;
};

}  // namespace byzcast::net
