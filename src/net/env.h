// The clock/scheduler interface protocol components run against
// (DESIGN.md §13).
//
// Everything above the transport — ByzcastNode, the failure detectors,
// sync sessions, adversaries, the flight recorder — needs exactly four
// capabilities from its runtime: a monotonic clock, one-shot callbacks,
// cancellation, and deterministic RNG streams. Env names that contract.
// Two implementations exist:
//
//   des::Simulator  — the discrete-event kernel. now() is virtual time,
//                     schedule_after() is an event-queue insert, and
//                     split_rng() derives seeded streams, so a (seed,
//                     scenario) pair still fully determines a run. The
//                     simulator *is* an Env (no adapter object), which is
//                     what keeps the golden determinism hashes unchanged:
//                     porting a component to Env& changes the static type
//                     of calls, never their order.
//   net::IoLoop     — the live backend (net/io_loop.h). now() is a
//                     steady_clock microsecond count since loop start,
//                     schedule_after() arms a real timer dispatched by a
//                     ppoll() loop that waits to the microsecond, and
//                     split_rng() derives streams from a boot seed
//                     (entropy for daemons, fixed for tests).
//
// Both keep their pending callbacks in a des::EventQueue, so due
// callbacks fire in (time, schedule order) on either backend, and ids
// follow one rule: never 0, and a fired or cancelled id cancels nothing.
//
// Time stays des::SimTime (integer microseconds) on both backends: the
// protocol's timeout arithmetic is unit-agnostic, so "800 ms of virtual
// silence" and "800 ms of wall-clock silence" run the same code.
#pragma once

#include <cstdint>
#include <functional>

#include "des/rng.h"
#include "des/time.h"

namespace byzcast::net {

/// Handle for a scheduled callback; 0 is never issued, so components can
/// use it as the "nothing pending" sentinel. It is a des::EventId.
using TimerId = std::uint64_t;

class Env {
 public:
  virtual ~Env() = default;

  /// Monotonic current time in microseconds (virtual or wall).
  [[nodiscard]] virtual des::SimTime now() const = 0;

  /// Schedules `action` to run once, `delay` microseconds from now().
  /// Returns a cancellation handle. Actions run on the env's dispatch
  /// thread (both backends are single-threaded dispatchers).
  virtual TimerId schedule_after(des::SimDuration delay,
                                 std::function<void()> action) = 0;

  /// Cancels a pending callback; false if it already fired or was
  /// cancelled.
  virtual bool cancel(TimerId id) = 0;

  /// Derives an independent deterministic RNG stream for one component.
  virtual des::Rng split_rng() = 0;
};

}  // namespace byzcast::net
