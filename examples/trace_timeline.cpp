// Renders a run as a chronological protocol-event log — every broadcast,
// delivery, forward, gossip relay, recovery request, retransmission,
// suspicion and overlay transition, with simulated timestamps. Useful for
// studying how a specific scenario actually unfolded; `--csv` / `--jsonl`
// switch the output format for external tooling (the JSONL is the
// byzcast-msg-trace/v2 file byztrace reads).
//
//   ./build/examples/trace_timeline [--n=12] [--mute=2] [--bcasts=3]
#include <iostream>

#include "sim/runner.h"
#include "util/cli.h"

int main(int argc, char** argv) {
  using namespace byzcast;
  util::CliArgs args(argc, argv);

  sim::ScenarioConfig config;
  config.seed = static_cast<std::uint64_t>(args.get_int("seed", 4));
  config.n = static_cast<std::size_t>(args.get_int("n", 12));
  config.area = {420, 420};
  config.tx_range = 140;
  auto mute = static_cast<std::size_t>(args.get_int("mute", 2));
  if (mute > 0) config.adversaries = {{byz::AdversaryKind::kMute, mute}};
  config.num_broadcasts =
      static_cast<std::size_t>(args.get_int("bcasts", 3));
  config.cooldown = des::seconds(8);
  config.enable_msg_trace = true;
  bool csv = args.get_bool("csv", false);
  bool jsonl = args.get_bool("jsonl", false);
  args.reject_unknown();

  sim::Network network(config);
  sim::RunResult result = sim::run_workload(network);

  const obs::MsgTraceRecorder& trace = network.msg_trace();
  if (csv) {
    trace.write_csv(std::cout);
  } else if (jsonl) {
    trace.write_jsonl(std::cout);
  } else {
    trace.write_text(std::cout);
    std::cout << "\n" << trace.events().size() << " events, delivery "
              << result.metrics.delivery_ratio() << "\n";
  }
  return 0;
}
