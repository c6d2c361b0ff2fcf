#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <utility>
#include <vector>

#include "des/event_queue.h"
#include "des/rng.h"
#include "des/simulator.h"
#include "net/timer.h"

namespace byzcast::des {
namespace {

// ---------------------------------------------------------------------------
// Rng
// ---------------------------------------------------------------------------

TEST(Rng, DeterministicForSameSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next_u64() == b.next_u64()) ++same;
  }
  EXPECT_EQ(same, 0);
}

TEST(Rng, NextBelowStaysInBounds) {
  Rng rng(7);
  for (std::uint64_t bound : {1ULL, 2ULL, 3ULL, 10ULL, 1000ULL}) {
    for (int i = 0; i < 200; ++i) EXPECT_LT(rng.next_below(bound), bound);
  }
  EXPECT_THROW(rng.next_below(0), std::invalid_argument);
}

TEST(Rng, NextBelowIsRoughlyUniform) {
  Rng rng(99);
  constexpr int kBuckets = 10;
  constexpr int kDraws = 100000;
  int counts[kBuckets] = {};
  for (int i = 0; i < kDraws; ++i) ++counts[rng.next_below(kBuckets)];
  for (int c : counts) {
    EXPECT_NEAR(c, kDraws / kBuckets, kDraws / kBuckets * 0.1);
  }
}

TEST(Rng, DoublesInUnitInterval) {
  Rng rng(5);
  double sum = 0;
  for (int i = 0; i < 10000; ++i) {
    double d = rng.next_double();
    ASSERT_GE(d, 0.0);
    ASSERT_LT(d, 1.0);
    sum += d;
  }
  EXPECT_NEAR(sum / 10000, 0.5, 0.02);
}

TEST(Rng, ChanceRespectsProbability) {
  Rng rng(11);
  int hits = 0;
  for (int i = 0; i < 10000; ++i) hits += rng.chance(0.3) ? 1 : 0;
  EXPECT_NEAR(hits, 3000, 200);
  EXPECT_FALSE(rng.chance(0.0));
  EXPECT_TRUE(rng.chance(1.0));
}

TEST(Rng, ExponentialHasRequestedMean) {
  Rng rng(13);
  double sum = 0;
  for (int i = 0; i < 20000; ++i) sum += rng.exponential(5.0);
  EXPECT_NEAR(sum / 20000, 5.0, 0.25);
  EXPECT_THROW(rng.exponential(0), std::invalid_argument);
}

TEST(Rng, SplitProducesIndependentStreams) {
  Rng parent(42);
  Rng child1 = parent.split();
  Rng child2 = parent.split();
  // Children of the same parent differ from each other and the parent.
  EXPECT_NE(child1.next_u64(), child2.next_u64());

  // Splitting is deterministic: replaying the parent replays the children.
  Rng parent2(42);
  Rng child1b = parent2.split();
  Rng c1 = Rng(42).split();
  EXPECT_EQ(c1.next_u64(), child1b.next_u64());
}

// ---------------------------------------------------------------------------
// EventQueue
// ---------------------------------------------------------------------------

TEST(EventQueue, PopsInTimeOrder) {
  EventQueue q;
  std::vector<int> fired;
  q.schedule(30, [&] { fired.push_back(3); });
  q.schedule(10, [&] { fired.push_back(1); });
  q.schedule(20, [&] { fired.push_back(2); });
  while (!q.empty()) q.pop().action();
  EXPECT_EQ(fired, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, SimultaneousEventsFireInInsertionOrder) {
  EventQueue q;
  std::vector<int> fired;
  for (int i = 0; i < 10; ++i) {
    q.schedule(5, [&fired, i] { fired.push_back(i); });
  }
  while (!q.empty()) q.pop().action();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(fired[i], i);
}

TEST(EventQueue, CancelPreventsExecution) {
  EventQueue q;
  bool fired = false;
  EventId id = q.schedule(10, [&] { fired = true; });
  EXPECT_TRUE(q.cancel(id));
  EXPECT_FALSE(q.cancel(id));  // double cancel
  EXPECT_TRUE(q.empty());
  EXPECT_FALSE(fired);
}

TEST(EventQueue, CancelMiddleOfQueue) {
  EventQueue q;
  std::vector<int> fired;
  q.schedule(10, [&] { fired.push_back(1); });
  EventId mid = q.schedule(20, [&] { fired.push_back(2); });
  q.schedule(30, [&] { fired.push_back(3); });
  q.cancel(mid);
  EXPECT_EQ(q.size(), 2u);
  while (!q.empty()) q.pop().action();
  EXPECT_EQ(fired, (std::vector<int>{1, 3}));
}

TEST(EventQueue, NextTimeSkipsCancelled) {
  EventQueue q;
  EventId early = q.schedule(10, [] {});
  q.schedule(20, [] {});
  q.cancel(early);
  EXPECT_EQ(q.next_time(), 20u);
}

TEST(EventQueue, TieBreakIsTimeThenInsertionSequenceOnBothBackends) {
  // The dispatch-order contract every golden hash in the repo rests on:
  // primary key is time, secondary key is schedule() call order — and it
  // holds identically for the timer wheel and the plain heap.
  for (auto backend :
       {EventQueue::Backend::kHybrid, EventQueue::Backend::kHeapOnly}) {
    EventQueue q(backend);
    std::vector<int> fired;
    q.schedule(50, [&] { fired.push_back(0); });
    q.schedule(10, [&] { fired.push_back(1); });
    q.schedule(50, [&] { fired.push_back(2); });
    q.schedule(10, [&] { fired.push_back(3); });
    q.schedule(50, [&] { fired.push_back(4); });
    while (!q.empty()) q.pop().action();
    EXPECT_EQ(fired, (std::vector<int>{1, 3, 0, 2, 4}))
        << "backend " << static_cast<int>(backend);
  }
}

TEST(EventQueue, BackendsDispatchIdenticallyOnRandomizedSchedule) {
  // Cross-check: the same randomized schedule — times spanning wheel
  // slots, level boundaries, and the far-future overflow heap, plus
  // cancellations and events scheduling follow-up events — must pop in
  // exactly the same (time, label) sequence from both backends.
  auto run = [](EventQueue::Backend backend) {
    EventQueue q(backend);
    Rng rng(2026);
    std::vector<std::pair<SimTime, int>> fired;
    int spawned = 0;
    // Each fired event may schedule one follow-up, exercising inserts
    // at and after the wheel cursor mid-drain.
    std::function<std::function<void()>(SimTime, int)> make =
        [&](SimTime at, int label) -> std::function<void()> {
      return [&, at, label] {
        fired.emplace_back(at, label);
        if (spawned < 200) {
          const int child = 100000 + spawned++;
          const SimTime child_at = at + rng.next_below(1 << 14);
          q.schedule(child_at, make(child_at, child));
        }
      };
    };
    std::vector<EventId> ids;
    for (int i = 0; i < 400; ++i) {
      SimTime at = 0;
      switch (rng.next_below(5)) {
        case 0:  at = rng.next_below(1 << 12); break;        // first ticks
        case 1:  at = rng.next_below(1 << 22); break;        // levels 0-1
        case 2:  at = rng.next_below(1ULL << 32); break;     // levels 2-3
        case 3:  at = rng.next_below(1ULL << 40); break;     // beyond wheel
        default:                                             // exact slot
          at = rng.next_below(64) << (10 + 6 * rng.next_below(4));
      }
      ids.push_back(q.schedule(at, make(at, i)));
    }
    for (std::size_t i = 0; i < ids.size(); i += 3) {
      EXPECT_TRUE(q.cancel(ids[i]));
    }
    SimTime prev = 0;
    while (!q.empty()) {
      auto entry = q.pop();
      EXPECT_GE(entry.at, prev);  // never travels back in time
      prev = entry.at;
      entry.action();
    }
    return fired;
  };
  auto hybrid = run(EventQueue::Backend::kHybrid);
  auto heap = run(EventQueue::Backend::kHeapOnly);
  ASSERT_EQ(hybrid.size(), heap.size());
  EXPECT_EQ(hybrid, heap);
}

// ---------------------------------------------------------------------------
// Simulator
// ---------------------------------------------------------------------------

TEST(Simulator, ClockAdvancesWithEvents) {
  Simulator sim(1);
  SimTime seen = 0;
  sim.schedule_after(millis(5), [&] { seen = sim.now(); });
  sim.run_until(seconds(1));
  EXPECT_EQ(seen, millis(5));
  EXPECT_EQ(sim.now(), seconds(1));  // clock lands on the deadline
}

TEST(Simulator, EventsCanScheduleEvents) {
  Simulator sim(1);
  int depth = 0;
  std::function<void()> recurse = [&] {
    if (++depth < 5) sim.schedule_after(10, recurse);
  };
  sim.schedule_after(10, recurse);
  sim.run_to_completion();
  EXPECT_EQ(depth, 5);
  EXPECT_EQ(sim.now(), 50u);
}

TEST(Simulator, RunUntilStopsAtDeadline) {
  Simulator sim(1);
  int fired = 0;
  sim.schedule_after(10, [&] { ++fired; });
  sim.schedule_after(100, [&] { ++fired; });
  sim.run_until(50);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.pending_events(), 1u);
  sim.run_until(200);
  EXPECT_EQ(fired, 2);
}

TEST(Simulator, ScheduleAtRejectsPast) {
  Simulator sim(1);
  sim.schedule_after(100, [] {});
  sim.run_until(100);
  EXPECT_THROW(sim.schedule_at(50, [] {}), std::invalid_argument);
}

TEST(Simulator, SplitRngIsDeterministicPerSeed) {
  Simulator a(9), b(9);
  EXPECT_EQ(a.split_rng().next_u64(), b.split_rng().next_u64());
}

// ---------------------------------------------------------------------------
// Timers
// ---------------------------------------------------------------------------

using net::OneShotTimer;
using net::PeriodicTimer;

TEST(PeriodicTimer, FiresEveryPeriod) {
  Simulator sim(1);
  int ticks = 0;
  PeriodicTimer timer(sim, millis(10), [&] { ++ticks; });
  timer.start();
  sim.run_until(millis(55));
  EXPECT_EQ(ticks, 5);
}

TEST(PeriodicTimer, StopHaltsTicks) {
  Simulator sim(1);
  int ticks = 0;
  PeriodicTimer timer(sim, millis(10), [&] { ++ticks; });
  timer.start();
  sim.schedule_after(millis(25), [&] { timer.stop(); });
  sim.run_until(seconds(1));
  EXPECT_EQ(ticks, 2);
  EXPECT_FALSE(timer.running());
}

TEST(PeriodicTimer, CallbackMayStopOwnTimer) {
  Simulator sim(1);
  int ticks = 0;
  PeriodicTimer timer(sim, millis(10), [&] {
    if (++ticks == 3) timer.stop();
  });
  timer.start();
  sim.run_until(seconds(1));
  EXPECT_EQ(ticks, 3);
}

TEST(PeriodicTimer, DestructorCancels) {
  Simulator sim(1);
  int ticks = 0;
  {
    PeriodicTimer timer(sim, millis(10), [&] { ++ticks; });
    timer.start();
  }
  sim.run_until(seconds(1));
  EXPECT_EQ(ticks, 0);
}

TEST(PeriodicTimer, InitialDelayControlsPhase) {
  Simulator sim(1);
  SimTime first = 0;
  PeriodicTimer timer(sim, millis(10), [&] {
    if (first == 0) first = sim.now();
  });
  timer.start(millis(3));
  sim.run_until(millis(30));
  EXPECT_EQ(first, millis(3));
}

TEST(OneShotTimer, FiresOnceAndRearms) {
  Simulator sim(1);
  int fired = 0;
  OneShotTimer timer(sim);
  timer.arm(millis(5), [&] { ++fired; });
  sim.run_until(millis(100));
  EXPECT_EQ(fired, 1);
  EXPECT_FALSE(timer.pending());
  timer.arm(millis(5), [&] { ++fired; });
  sim.run_until(millis(200));
  EXPECT_EQ(fired, 2);
}

TEST(OneShotTimer, RearmCancelsPending) {
  Simulator sim(1);
  int first = 0, second = 0;
  OneShotTimer timer(sim);
  timer.arm(millis(5), [&] { ++first; });
  timer.arm(millis(10), [&] { ++second; });
  sim.run_until(millis(100));
  EXPECT_EQ(first, 0);
  EXPECT_EQ(second, 1);
}

}  // namespace
}  // namespace byzcast::des
