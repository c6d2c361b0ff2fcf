#include "sim/fault_injector.h"

#include <algorithm>
#include <iomanip>
#include <sstream>
#include <stdexcept>

#include "sim/network_builder.h"

namespace byzcast::sim {

namespace {

/// "fault schedule: t=<s> <kind>", how every rejection names its line.
std::ostringstream rejection(const FaultEvent& event) {
  std::ostringstream why;
  why << "fault schedule: t=" << std::setprecision(15)
      << des::to_seconds(event.at) << ' ' << fault_kind_name(event.kind);
  return why;
}

/// Throws std::invalid_argument for the first event that targets a node
/// the fleet will not have when the event fires, or that joins a node to
/// a fleet whose protocol models no churn. Walks the events in the order
/// they execute (time, then line) and grows the fleet by one per join, so
/// a script may crash the node it just joined.
void check_targets(const FaultSchedule& schedule, const Network& net) {
  std::vector<FaultEvent> order = schedule.events;
  std::stable_sort(order.begin(), order.end(),
                   [](const FaultEvent& a, const FaultEvent& b) {
                     return a.at < b.at;
                   });
  std::size_t fleet = net.node_count();
  for (const FaultEvent& event : order) {
    switch (event.kind) {
      case FaultKind::kJoin:
        if (net.config().protocol != ProtocolKind::kByzcast) {
          std::ostringstream why = rejection(event);
          why << " pos=" << event.position.x << ',' << event.position.y
              << ": churn is only modelled for byzcast, not "
              << protocol_kind_name(net.config().protocol);
          throw std::invalid_argument(why.str());
        }
        ++fleet;
        break;
      case FaultKind::kCrashStop:
      case FaultKind::kCrashRecover:
      case FaultKind::kRadioOutage:
      case FaultKind::kRadioRestore:
      case FaultKind::kLeave:
        if (event.node >= fleet) {
          std::ostringstream why = rejection(event);
          why << " node=" << event.node << " names no node; the fleet has "
              << fleet << " nodes at that time";
          throw std::invalid_argument(why.str());
        }
        break;
      case FaultKind::kPartition:
      case FaultKind::kHeal:
        break;
    }
  }
}

}  // namespace

FaultInjector::FaultInjector(Network& net, FaultSchedule schedule)
    : net_(net),
      schedule_(std::move(schedule)),
      poll_timer_(net.simulator(), kPollPeriod, [this] { poll_catchups(); }) {
  check_targets(schedule_, net_);
  for (const FaultEvent& event : schedule_.events) {
    net_.simulator().schedule_at(event.at, [this, event] { execute(event); });
  }
}

void FaultInjector::execute(const FaultEvent& event) {
  switch (event.kind) {
    case FaultKind::kCrashStop:
      net_.crash_node(event.node);
      break;
    case FaultKind::kCrashRecover:
      net_.recover_node(event.node);
      if (net_.node_running(event.node)) watch_catchup(event.node);
      break;
    case FaultKind::kRadioOutage:
      net_.set_radio_attached(event.node, false);
      break;
    case FaultKind::kRadioRestore:
      net_.set_radio_attached(event.node, true);
      break;
    case FaultKind::kPartition:
      net_.partition_at(event.wall_x);
      break;
    case FaultKind::kHeal:
      net_.heal_partition();
      break;
    case FaultKind::kJoin:
      net_.join_node(event.position);
      break;
    case FaultKind::kLeave:
      net_.leave_node(event.node);
      break;
  }
}

void FaultInjector::watch_catchup(NodeId node) {
  // Target: every message that each live correct node other than the
  // recovered one has accepted (or originated) by now. Messages still in
  // flight at recovery are excluded — the recovered node will get them
  // through ordinary dissemination, which is not "catch-up".
  std::vector<NodeId> live = net_.live_correct_nodes();
  std::erase(live, node);
  CatchupWatch watch;
  watch.node = node;
  watch.recovered_at = net_.simulator().now();
  if (!live.empty()) {
    for (const auto& [key, rec] : net_.metrics().records()) {
      bool everywhere = true;
      for (NodeId peer : live) {
        if (peer == key.origin) continue;
        if (rec.accepted.count(peer) == 0) {
          everywhere = false;
          break;
        }
      }
      if (everywhere) {
        watch.pending.push_back(core::MessageId{key.origin, key.seq});
      }
    }
  }
  watches_.push_back(std::move(watch));
  if (!poll_timer_.running()) poll_timer_.start();
  poll_catchups();  // a recovery with nothing to catch up on completes now
}

void FaultInjector::poll_catchups() {
  const des::SimTime now = net_.simulator().now();
  std::erase_if(watches_, [&](CatchupWatch& watch) {
    if (!net_.node_running(watch.node)) return true;  // crashed again / left
    const core::ByzcastNode* node = net_.byzcast_node(watch.node);
    if (node == nullptr) return true;
    std::erase_if(watch.pending, [&](const core::MessageId& id) {
      return node->store().accepted(id);
    });
    if (watch.pending.empty()) {
      net_.metrics().on_catchup_complete(watch.node, now - watch.recovered_at);
      return true;
    }
    return now - watch.recovered_at > kCatchupDeadline;  // give up
  });
  if (watches_.empty()) poll_timer_.stop();
}

}  // namespace byzcast::sim
