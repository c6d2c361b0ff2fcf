// E15 — MUTE failure-detector tuning: the completeness/accuracy
// trade-off the paper's §2.2 discussion leaves to the implementation.
// Two measurements per (expect_timeout, miss_threshold) point:
//
//  * detection latency, on the deterministic diamond topology (S-X-Y plus
//    a high-id mute M covering all three — the topology class where
//    detection is guaranteed to be needed: the victims' overlay
//    neighbourhood is the mute node). Time from the first broadcast until
//    ANY correct node distrusts M (which victim catches it first depends
//    on whose transmissions collide). Interval Local Completeness,
//    sooner is better. Single deterministic run — stays serial.
//
//  * false suspicions, on a dense failure-free network where collisions
//    regularly make correct overlay neighbours *appear* silent: the
//    run's traced suspect/bad_signature events, run as a sweep over the
//    (timeout, threshold) grid with a trace observer. Every suspicion —
//    MUTE, VERBOSE, signature, sync — passes ByzcastNode::suspect(), so
//    the count equals the nodes' summed TrustFd::suspicion_events.
//    Interval Strong Accuracy, fewer is better.
//
// Measured shape (EXPERIMENTS.md E15): aggressive settings (300 ms / 1)
// detect in under a second but convict correct nodes whose frames merely
// collided, ~137 times per run; conservative settings (1600 ms / 5) stay
// clean but take four seconds. The shipped default (800 ms / 3) detects
// in 2.25 s at ~4 false convictions per run.
#include "bench_util.h"

#include "byz/adversary.h"
#include "mobility/static_mobility.h"

namespace {

using namespace byzcast;

/// Detection latency at Y on the diamond; -1 if M is never suspected.
double diamond_detection_latency(des::SimDuration expect_timeout,
                                 int threshold) {
  des::Simulator sim(17);
  stats::Metrics metrics;
  crypto::Pki pki(des::Rng(5));
  radio::Medium medium(sim, std::make_unique<radio::UnitDisk>(), {},
                       &metrics);
  core::ProtocolConfig config;
  config.gossip_period = des::millis(250);
  config.hello_period = des::millis(500);
  config.neighbor_timeout = des::millis(1800);
  config.mute.expect_timeout = expect_timeout;
  config.mute.suspicion_threshold = threshold;
  config.mute.suspicion_interval = des::seconds(120);

  std::vector<std::unique_ptr<mobility::MobilityModel>> mob;
  std::vector<std::unique_ptr<radio::Radio>> radios;
  std::vector<std::unique_ptr<core::ByzcastNode>> nodes;
  auto add = [&](geo::Vec2 pos, byz::AdversaryKind kind) {
    auto id = static_cast<NodeId>(radios.size());
    mob.push_back(std::make_unique<mobility::StaticMobility>(pos));
    radios.push_back(
        std::make_unique<radio::Radio>(medium, id, *mob.back(), 100));
    nodes.push_back(byz::make_adversary(kind, sim, *radios.back(), pki,
                                        pki.register_node(id), config,
                                        &metrics));
    nodes.back()->start();
  };
  add({0, 0}, byz::AdversaryKind::kNone);
  add({80, 0}, byz::AdversaryKind::kNone);
  add({160, 0}, byz::AdversaryKind::kNone);
  add({80, 60}, byz::AdversaryKind::kMute);

  sim.run_until(des::seconds(4));
  const des::SimTime start = sim.now();
  for (int i = 0; i < 40; ++i) {
    sim.schedule_at(start + des::millis(500) * i, [&, i] {
      nodes[0]->broadcast(sim::make_payload(i, 64));
    });
  }
  for (int tick = 1; tick <= 120; ++tick) {
    sim.run_until(start + des::millis(250) * tick);
    for (int correct = 0; correct < 3; ++correct) {
      if (nodes[static_cast<std::size_t>(correct)]->trust().suspects(3)) {
        return des::to_seconds(sim.now() - start);
      }
    }
  }
  return -1.0;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace byzcast;
  util::CliArgs args(argc, argv);
  bench::register_sweep_flags(args);
  if (args.handle_help(argv[0], std::cout)) return 0;
  bench::SweepOptions opt = bench::sweep_options(args, argv[0]);

  // Dense failure-free network, collision-heavy: every suspicion traced
  // here convicts a correct node.
  sim::ScenarioConfig base;
  base.n = 40;
  base.tx_range = 120;
  double side = bench::density_side(40, base.tx_range, 14.0);
  base.area = {side, side};
  base.num_broadcasts = 40;
  base.broadcast_interval = des::millis(150);
  base.protocol_config.mute.suspicion_interval = des::seconds(120);
  base.enable_msg_trace = true;

  sim::SweepSpec spec;
  spec.base(base)
      .axis("expect_timeout_ms")
      .variant_axis("threshold")
      .replicas(opt.replicas)
      .seed_base(1700);
  for (std::uint64_t timeout_ms : {300u, 800u, 1600u}) {
    spec.value(static_cast<std::int64_t>(timeout_ms),
               [timeout_ms](sim::ScenarioConfig& c) {
                 c.protocol_config.mute.expect_timeout =
                     des::millis(timeout_ms);
               });
  }
  for (int threshold : {1, 3, 5}) {
    spec.variant(std::to_string(threshold),
                 [threshold](sim::ScenarioConfig& c) {
                   c.protocol_config.mute.suspicion_threshold = threshold;
                 });
  }
  spec.observe("false_suspicions",
               [](sim::Network& network, const sim::RunResult&) {
                 const obs::MsgTraceRecorder& trace = network.msg_trace();
                 return static_cast<double>(
                     trace.count(obs::MsgEventKind::kSuspect) +
                     trace.count(obs::MsgEventKind::kBadSignature));
               });
  sim::SweepResult result = bench::run_sweep(spec, opt);

  util::Table table({"expect_timeout_ms", "threshold", "detect_latency_s",
                     "false_suspicions_per_run"});
  for (const sim::SweepPoint& point : result.points) {
    const fd::MuteFdConfig& mute = point.config.protocol_config.mute;
    table.add_row(
        {point.axis_value, point.variant,
         diamond_detection_latency(mute.expect_timeout,
                                   mute.suspicion_threshold),
         point.feasible()
             ? util::Cell(point
                              .summarize(sim::sweep_metrics::observed(
                                  "false_suspicions", 0))
                              .mean())
             : util::Cell(std::string("n/a"))});
  }
  bench::emit(table, args);
  return 0;
}
