// Network inspector: runs a scenario and dumps the full per-broadcast
// accept matrix plus every node's protocol state (overlay role, buffer
// sizes, failure-detector counters). The example to copy when debugging
// a scenario of your own.
//
//   ./build/examples/network_inspector [--n=25] [--mute=0] [--seed=3]
//       [--fault-script=faults.txt]
#include <cstdio>

#include "sim/runner.h"
#include "util/cli.h"

int main(int argc, char** argv) try {
  using namespace byzcast;
  util::CliArgs args(argc, argv);
  sim::ScenarioConfig config;
  config.seed = static_cast<std::uint64_t>(args.get_int("seed", 3));
  config.n = static_cast<std::size_t>(args.get_int("n", 25));
  config.area = {600, 600};
  config.tx_range = 150;
  config.num_broadcasts = static_cast<std::size_t>(args.get_int("bcasts", 10));
  auto mute = static_cast<std::size_t>(args.get_int("mute", 0));
  if (mute > 0) config.adversaries.push_back({byz::AdversaryKind::kMute, mute});
  std::string fault_script = args.get_str("fault-script", "");
  if (!fault_script.empty()) {
    config.fault_schedule = sim::FaultSchedule::parse(
        util::read_flag_file("fault-script", fault_script));
  }
  args.reject_unknown();

  sim::Network network(config);
  sim::RunResult result = sim::run_workload(network);
  const stats::Metrics& m = result.metrics;

  std::printf("delivery=%.4f\n", m.delivery_ratio());
  std::printf(
      "availability=%.4f node_seconds_available=%.1f downtime_events=%llu "
      "recoveries=%llu/%llu catchup_mean=%.2fs catchup_p50=%.2fs "
      "catchup_p99=%.2fs\n",
      result.availability,
      m.node_seconds_available(network.simulator().now(),
                               network.node_count()),
      static_cast<unsigned long long>(m.downtime_events()),
      static_cast<unsigned long long>(m.recoveries_completed()),
      static_cast<unsigned long long>(m.recoveries_returned()),
      m.catchup_latency().mean(), m.catchup_latency().percentile(0.5),
      m.catchup_latency().percentile(0.99));
  for (const auto& [key, rec] : m.records()) {
    std::printf("bcast (%u,%u) sent_at=%.2fs accepted=%zu/%zu missing:",
                key.origin, key.seq, des::to_seconds(rec.sent_at),
                rec.accepted.size(), rec.targets);
    for (NodeId node : network.correct_nodes()) {
      if (node == key.origin) continue;
      if (rec.accepted.count(node) == 0) std::printf(" %u", node);
    }
    std::printf("\n");
  }
  std::printf("\nper-node state:\n");
  for (NodeId node = 0; node < network.node_count(); ++node) {
    core::ByzcastNode* bn = network.byzcast_node(node);
    if (bn == nullptr) continue;
    std::printf(
        "node %2u kind=%s overlay=%d stored=%zu accepted=%zu olneigh=%zu "
        "tblneigh=%zu untrusted=%zu mute_ev=%llu verb_ev=%llu badsig_ev=%llu\n",
        node, byz::adversary_kind_name(network.kind_of(node)),
        bn->in_overlay() ? 1 : 0, bn->store().size(),
        bn->store().accepted_count(), bn->overlay_neighbors().size(),
        bn->neighbor_table().entries().size(), bn->trust().untrusted().size(),
        static_cast<unsigned long long>(
            bn->trust().suspicion_events(fd::SuspicionReason::kMute)),
        static_cast<unsigned long long>(
            bn->trust().suspicion_events(fd::SuspicionReason::kVerbose)),
        static_cast<unsigned long long>(
            bn->trust().suspicion_events(fd::SuspicionReason::kBadSignature)));
  }
  return 0;
} catch (const std::exception& e) {
  std::fprintf(stderr, "network_inspector: %s\n", e.what());
  return 1;
}
