// Discrete-event simulation kernel (the JiST substitute, DESIGN.md S1).
//
// Single-threaded: events fire in strict (time, insertion) order and may
// schedule further events. Components receive a `Simulator&` and own Rng
// streams split from the root seed, so a (seed, scenario) pair fully
// determines a run.
//
// The simulator *is* a net::Env (DESIGN.md §13): protocol components
// written against Env& run over the event queue with no adapter object in
// between, so porting them changes the static type of their clock calls
// but never the order of queue inserts — the determinism contract holds.
#pragma once

#include <cstdint>
#include <functional>
#include <stdexcept>

#include "des/event_queue.h"
#include "des/rng.h"
#include "des/time.h"
#include "net/env.h"

namespace byzcast::des {

class Simulator final : public net::Env {
 public:
  explicit Simulator(std::uint64_t seed) : root_rng_(seed) {}

  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// Current simulated time.
  [[nodiscard]] SimTime now() const override { return now_; }

  /// Schedules `action` after `delay`. Returns a cancellation handle.
  EventId schedule_after(SimDuration delay,
                         std::function<void()> action) override {
    return queue_.schedule(now_ + delay, std::move(action));
  }

  /// Schedules `action` at absolute time `at` (must be >= now()).
  EventId schedule_at(SimTime at, std::function<void()> action) {
    if (at < now_) {
      throw std::invalid_argument("Simulator::schedule_at: time in the past");
    }
    return queue_.schedule(at, std::move(action));
  }

  /// Cancels a pending event; false if it already fired or was cancelled.
  bool cancel(EventId id) override { return queue_.cancel(id); }

  /// Runs events until the queue drains or `deadline` is passed. The clock
  /// is left at min(deadline, time of last event). Returns the number of
  /// events executed.
  std::size_t run_until(SimTime deadline);

  /// Runs until the queue drains (only safe for workloads that terminate,
  /// e.g. no periodic timers). Returns events executed.
  std::size_t run_to_completion();

  [[nodiscard]] std::size_t pending_events() const { return queue_.size(); }
  [[nodiscard]] std::uint64_t events_executed() const {
    return events_executed_;
  }

  /// Derives an independent RNG stream for one component.
  Rng split_rng() override { return root_rng_.split(); }

 private:
  EventQueue queue_;
  Rng root_rng_;
  SimTime now_ = 0;
  std::uint64_t events_executed_ = 0;
};

}  // namespace byzcast::des
