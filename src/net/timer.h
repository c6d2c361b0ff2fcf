// RAII timers on top of any net::Env.
//
// PeriodicTimer re-arms itself each tick until stopped or destroyed;
// OneShotTimer fires once and can be restarted. Both cancel automatically
// on destruction so a component that dies mid-run cannot leave a dangling
// callback into freed memory. These are the timers every protocol
// component uses; they behave identically over the DES (virtual time) and
// the IoLoop (wall time), because they are written purely against the Env
// contract.
#pragma once

#include <functional>
#include <utility>

#include "net/env.h"

namespace byzcast::net {

class PeriodicTimer {
 public:
  PeriodicTimer(Env& env, des::SimDuration period, std::function<void()> tick)
      : env_(env), period_(period), tick_(std::move(tick)) {}

  PeriodicTimer(const PeriodicTimer&) = delete;
  PeriodicTimer& operator=(const PeriodicTimer&) = delete;
  ~PeriodicTimer() { stop(); }

  /// Arms the timer; first tick fires after `initial_delay` (defaults to
  /// one period). Restarting an armed timer resets the phase.
  void start(des::SimDuration initial_delay) {
    stop();
    running_ = true;
    arm(initial_delay);
  }
  void start() { start(period_); }

  void stop() {
    if (event_ != 0) {
      env_.cancel(event_);
      event_ = 0;
    }
    running_ = false;
  }

  [[nodiscard]] bool running() const { return running_; }
  [[nodiscard]] des::SimDuration period() const { return period_; }

 private:
  void arm(des::SimDuration delay) {
    event_ = env_.schedule_after(delay, [this] {
      event_ = 0;
      // Re-arm before the callback so tick_ may stop() the timer.
      arm(period_);
      tick_();
    });
  }

  Env& env_;
  des::SimDuration period_;
  std::function<void()> tick_;
  TimerId event_ = 0;
  bool running_ = false;
};

class OneShotTimer {
 public:
  explicit OneShotTimer(Env& env) : env_(env) {}
  OneShotTimer(const OneShotTimer&) = delete;
  OneShotTimer& operator=(const OneShotTimer&) = delete;
  ~OneShotTimer() { cancel(); }

  /// (Re)arms the timer to fire `fire` after `delay`; any pending firing
  /// is cancelled first.
  void arm(des::SimDuration delay, std::function<void()> fire) {
    cancel();
    fire_ = std::move(fire);
    event_ = env_.schedule_after(delay, [this] {
      event_ = 0;
      fire_();
    });
  }

  void cancel() {
    if (event_ != 0) {
      env_.cancel(event_);
      event_ = 0;
    }
  }

  [[nodiscard]] bool pending() const { return event_ != 0; }

 private:
  Env& env_;
  std::function<void()> fire_;
  TimerId event_ = 0;
};

}  // namespace byzcast::net
