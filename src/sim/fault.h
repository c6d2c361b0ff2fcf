// Declarative fault-injection schedule (DESIGN.md S25, §8).
//
// A FaultSchedule is a time-ordered list of benign-dynamics events —
// crash/recover, radio outages, timed area partitions, churn — that a
// FaultInjector (sim/fault_injector.h) replays against a Network from the
// DES event queue. Faults are a distinct axis from the Byzantine
// behaviours of byz/adversary.h: adversaries are *code* a node runs for
// the whole run, faults are *events* that happen to any node mid-run,
// and the two compose (a schedule may crash an adversary).
//
// The text format accepted by parse() (and byzsim's --fault-script) is
// one event per line:
//
//   # comment
//   t=10 crash node=3
//   t=25 recover node=3
//   t=30 radio-off node=7
//   t=32 radio-on node=7
//   t=40 partition x=250
//   t=50 heal
//   t=55 join pos=120,340
//   t=60 leave node=2
//
// Times are fractional seconds from run start. Malformed lines throw,
// and so does any number that is not a whole token: a NaN, infinite or
// negative time, a non-finite coordinate, or a node id of 2^32-1 or more.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "des/time.h"
#include "geo/vec2.h"
#include "util/node_id.h"

namespace byzcast::sim {

enum class FaultKind : std::uint8_t {
  kCrashStop,     ///< node halts: timers stop, radio detaches
  kCrashRecover,  ///< node reboots: volatile state wiped, keys kept
  kRadioOutage,   ///< link flap: radio detaches, node code keeps running
  kRadioRestore,  ///< radio reattaches
  kPartition,     ///< area split at x = wall_x (links across it blocked)
  kHeal,          ///< partition wall removed
  kJoin,          ///< churn: a fresh node id joins at `position`
  kLeave,         ///< churn: node departs permanently
};

const char* fault_kind_name(FaultKind kind);
FaultKind fault_kind_from_name(const std::string& name);

struct FaultEvent {
  des::SimTime at = 0;  ///< absolute simulated time
  FaultKind kind = FaultKind::kCrashStop;
  /// Target node (crash/recover/radio/leave). Ignored for partition,
  /// heal and join.
  NodeId node = kInvalidNode;
  /// kPartition: x coordinate of the wall.
  double wall_x = 0;
  /// kJoin: where the fresh node appears (static once joined).
  geo::Vec2 position{0, 0};
};

struct FaultSchedule {
  std::vector<FaultEvent> events;

  [[nodiscard]] bool empty() const { return events.empty(); }
  /// Time of the last scheduled event (0 when empty) — the runner keeps
  /// the simulation alive through it.
  [[nodiscard]] des::SimTime end_time() const;

  /// Parses the `t=<s> <event> node=<id>` text format described above.
  /// Throws std::invalid_argument (with the offending line) on malformed
  /// input. Events need not be pre-sorted; the injector orders them.
  static FaultSchedule parse(const std::string& text);
};

}  // namespace byzcast::sim
