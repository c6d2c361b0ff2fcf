// Executes a FaultSchedule against a Network from the DES event queue
// (DESIGN.md S25, §8).
//
// The injector is deliberately thin: every event dispatches to a Network
// lifecycle operation (crash_node, recover_node, ...), so tests can drive
// the same operations directly without a schedule. Its one piece of
// intelligence is the catch-up watch: when a node crash-recovers, the
// injector snapshots the set of messages every *live* correct node holds
// at that instant and polls the recovered node's store until it holds
// them all, reporting the elapsed time to Metrics as the post-recovery
// catch-up latency.
//
// A Network only constructs an injector when the schedule is non-empty,
// so fault-free runs execute the exact event sequence they did before
// this subsystem existed (trace identity, tested by
// fault_injection_test.cpp).
#pragma once

#include <vector>

#include "core/message.h"
#include "des/time.h"
#include "net/timer.h"
#include "sim/fault.h"
#include "util/node_id.h"

namespace byzcast::sim {

class Network;

class FaultInjector {
 public:
  /// Schedules every event in `schedule` on the network's simulator.
  /// `net` must outlive the injector (Network owns it, so it does).
  /// Throws std::invalid_argument, naming the event's time, kind and
  /// node, when an event targets a node id the fleet will not have by
  /// then (each earlier join adds one).
  FaultInjector(Network& net, FaultSchedule schedule);
  FaultInjector(const FaultInjector&) = delete;
  FaultInjector& operator=(const FaultInjector&) = delete;

  /// How often catch-up watches re-check the recovered node's store.
  static constexpr des::SimDuration kPollPeriod = des::millis(200);
  /// A watch that has not completed after this long is abandoned (the
  /// node crashed again, left, or genuinely cannot recover the data) —
  /// recoveries_completed then stays below recoveries_returned.
  static constexpr des::SimDuration kCatchupDeadline = des::seconds(120);

 private:
  void execute(const FaultEvent& event);
  /// Starts the catch-up watch for a node that just recovered.
  void watch_catchup(NodeId node);
  void poll_catchups();

  struct CatchupWatch {
    NodeId node = kInvalidNode;
    des::SimTime recovered_at = 0;
    /// Messages every live correct node held at recovery time that the
    /// recovered node has not re-obtained yet.
    std::vector<core::MessageId> pending;
  };

  Network& net_;
  FaultSchedule schedule_;
  std::vector<CatchupWatch> watches_;
  net::PeriodicTimer poll_timer_;
};

}  // namespace byzcast::sim
