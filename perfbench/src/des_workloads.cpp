// The two DES workloads. Both build their fleet through sim::Network (the
// only DES fleet builder) and drive it with the open-loop generator; the
// benchmark times its own calls into Network, Simulator::run_until and
// the broadcast path, and adds no probe to the library.
//
// A DES run is deterministic in its seed, so the end-to-end run repeats
// the same episode (build + run) until the measurement budget is spent:
// the sim-time metrics are identical in every episode — which the run
// checks — and the wall-clock ones are medians over episodes.
#include <algorithm>
#include <cmath>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.h"
#include "load.h"
#include "sim/network_builder.h"
#include "sim/runner.h"
#include "workload.h"

namespace perfbench {
namespace {

using namespace byzcast;

/// Seed of every DES fleet: placement, keys, Byzantine assignment and the
/// channel's random streams are the workload's fixed data, so runs with
/// different --seed differ only in the open-loop schedule — the one input
/// the program receives.
constexpr std::uint64_t kFleetSeed = 1;

struct DesWorkload {
  sim::ScenarioConfig config;  ///< fleet, protocol and channel
  double rate_per_s = 0;       ///< aggregate open-loop arrival rate
  std::size_t messages = 0;
  des::SimDuration warmup = 0;  ///< overlay formation before the load
  des::SimDuration drain = 0;   ///< recovery tail after the last arrival
  /// Wall seconds one episode takes on a 4-core Xeon (Release); sets how
  /// many episodes fill --seconds.
  double episode_s = 0;
};

// E17's scenario (bench_scale) at n = 10 000: grid placement at campus
// density, 130 m range, static nodes, 64 B payloads, E17's five
// broadcasts at its 400 ms spacing as a Poisson rate. A big working set
// with almost no message load: it stresses the event queue, the sharded
// Medium fan-out and HELLO/overlay upkeep.
DesWorkload des_scale() {
  DesWorkload w;
  sim::ScenarioConfig& c = w.config;
  c.seed = kFleetSeed;
  c.n = 10000;
  const double side = 700 * std::sqrt(static_cast<double>(c.n) / 80.0);
  c.area = {side, side};
  c.placement = sim::PlacementKind::kGrid;
  c.tx_range = 130;
  c.payload_bytes = 64;
  c.senders = 4;
  w.rate_per_s = 2.5;
  w.messages = 5;
  w.warmup = des::seconds(4);
  w.drain = des::seconds(6);
  w.episode_s = 6.5;
  return w;
}

// The paper's worst failure mode (10% mute nodes from t=0) under E19's
// loss regime (20% independent per-copy ingress drop), with range-sync
// running 4 s periodic sessions: recovery carries real load and the
// MessageStore serves REQUEST/FIND and sync reads beside its inserts.
DesWorkload des_lossy() {
  DesWorkload w;
  sim::ScenarioConfig& c = w.config;
  c.seed = kFleetSeed;
  c.n = 100;
  c.tx_range = 120;
  const double side = bench::density_side(c.n, c.tx_range);
  c.area = {side, side};
  c.placement = sim::PlacementKind::kGrid;
  c.adversaries = {{byz::AdversaryKind::kMute, 10}};
  c.senders = 10;
  c.payload_bytes = 256;
  c.impairment.link.drop = 0.2;
  c.protocol_config.sync.enabled = true;
  c.protocol_config.sync.period = des::seconds(4);
  w.rate_per_s = 8;
  w.messages = 1000;
  w.warmup = des::seconds(6);
  w.drain = des::seconds(12);
  w.episode_s = 4;
  return w;
}

/// What a traced episode records beyond the end-to-end figures.
struct DesTrace {
  double slice_wall_ms = 0;  ///< summed wall of the run_until slices
  double run_wall_ms = 0;    ///< whole run phase, sampling included
  double run_cpu_ms = 0;
  double broadcast_ms = 0;   ///< the generator's calls into broadcast_from
  std::size_t pending_max = 0;
  ProfileTotals profile;
  Counters counters;
  FleetPeaks peaks;
  std::size_t overlay_size = 0;
  net::ImpairmentStats impairment;
  Percentiles lag;
  std::size_t offered = 0;
};

/// Sim-time slice between the traced run's samples.
constexpr des::SimDuration kTraceSlice = des::millis(100);

struct Episode {
  double setup_s = 0;
  double run_wall_s = 0;
  double run_cpu_s = 0;
  double sim_s = 0;
  std::uint64_t events = 0;
  std::string snapshot;  ///< stats::snapshot of the run's Metrics
  std::vector<MessageRecord> messages;
  std::uint64_t payload_mismatches = 0;
  std::uint64_t duplicate_accepts = 0;
  std::uint64_t unknown_accepts = 0;
  /// Broadcasts missing from Metrics or not recorded at their due time.
  std::uint64_t off_schedule = 0;
};

Episode run_episode(const DesWorkload& w, const std::vector<Arrival>& schedule,
                    const std::vector<std::vector<std::uint8_t>>& payloads,
                    DesTrace* trace) {
  Episode ep;
  const std::uint64_t setup_start = steady_ns();
  auto net = std::make_unique<sim::Network>(w.config);
  ep.setup_s = static_cast<double>(steady_ns() - setup_start) / 1e9;

  des::Simulator& sim = net->simulator();
  const std::vector<NodeId>& origins = net->senders();
  std::vector<core::ByzcastNode*> fleet;
  for (std::size_t i = 0; i < net->node_count(); ++i) {
    fleet.push_back(net->byzcast_node(static_cast<NodeId>(i)));
  }

  // Every accepted payload must be the bytes broadcast; Metrics itself
  // counts duplicate and unknown accepts.
  std::map<stats::MessageKey, std::size_t> index_of;
  std::vector<stats::MessageKey> keys(schedule.size());
  for (NodeId id : net->correct_nodes()) {
    net->byzcast_node(id)->set_accept_handler(
        [&](const core::MessageId& mid, std::span<const std::uint8_t> payload) {
          auto it = index_of.find(stats::MessageKey{mid.origin, mid.seq});
          if (it == index_of.end()) return;
          const std::vector<std::uint8_t>& sent = payloads[it->second];
          if (!std::equal(payload.begin(), payload.end(), sent.begin(),
                          sent.end())) {
            ++ep.payload_mismatches;
          }
        });
  }

  const des::SimTime load_start = sim.now() + w.warmup;
  LagRecorder lag;
  for (std::size_t i = 0; i < schedule.size(); ++i) {
    const des::SimTime due = load_start + schedule[i].due;
    sim.schedule_at(due, [&, i, due] {
      const NodeId origin = origins.at(schedule[i].origin_slot);
      keys[i] = stats::MessageKey{origin, net->byzcast_node(origin)->next_seq()};
      index_of.emplace(keys[i], i);
      lag.record(due, sim.now());
      const std::uint64_t t0 = trace != nullptr ? steady_ns() : 0;
      net->broadcast_from(origin, payloads[i]);
      if (trace != nullptr) {
        trace->broadcast_ms += static_cast<double>(steady_ns() - t0) / 1e6;
      }
    });
  }
  const des::SimTime end = load_start + schedule.back().due + w.drain;

  Counters before;
  if (trace != nullptr) {
    before = Counters::read(net->metrics(), fleet);
    obs::Profiler::reset();
    obs::Profiler::set_enabled(true);
  }
  const double cpu_start = process_cpu_s();
  const std::uint64_t run_start = steady_ns();
  if (trace == nullptr) {
    sim.run_until(end);
  } else {
    for (des::SimTime until = sim.now(); until < end;) {
      until = std::min(until + kTraceSlice, end);
      const std::uint64_t slice_start = steady_ns();
      sim.run_until(until);
      trace->slice_wall_ms +=
          static_cast<double>(steady_ns() - slice_start) / 1e6;
      trace->pending_max = std::max(trace->pending_max, sim.pending_events());
      trace->peaks.sample(fleet);
    }
  }
  ep.run_wall_s = static_cast<double>(steady_ns() - run_start) / 1e9;
  ep.run_cpu_s = process_cpu_s() - cpu_start;
  if (trace != nullptr) {
    obs::Profiler::set_enabled(false);
    trace->profile = ProfileTotals::read();
    trace->run_wall_ms = ep.run_wall_s * 1e3;
    trace->run_cpu_ms = ep.run_cpu_s * 1e3;
    trace->counters = Counters::read(net->metrics(), fleet).minus(before);
    trace->overlay_size = net->overlay_members().size();
    trace->impairment = net->impairment_stats();
    trace->lag = lag.summary();
    trace->offered = lag.offered();
  }

  const stats::Metrics& metrics = net->metrics();
  ep.sim_s = des::to_seconds(sim.now());
  ep.events = sim.events_executed();
  ep.snapshot = stats::snapshot(metrics);
  ep.duplicate_accepts = metrics.duplicate_accepts();
  ep.unknown_accepts = metrics.unknown_accepts();

  std::vector<MessageRecord> messages(schedule.size());
  for (std::size_t i = 0; i < schedule.size(); ++i) {
    const des::SimTime due = load_start + schedule[i].due;
    MessageRecord& m = messages[i];
    m.due_ms = static_cast<double>(due) / 1e3;
    auto rec = metrics.records().find(keys[i]);
    const bool sent = keys[i].origin != kInvalidNode &&
                      rec != metrics.records().end();
    if (!sent || rec->second.sent_at != due) ++ep.off_schedule;
    for (NodeId node : net->correct_nodes()) {
      if (node == keys[i].origin) continue;
      double at = kNeverMs;
      if (sent) {
        auto acc = rec->second.accepted.find(node);
        if (acc != rec->second.accepted.end()) {
          at = static_cast<double>(acc->second) / 1e3;
        }
      }
      m.accept_ms.push_back(at);
    }
  }
  net.reset();
  ep.messages = std::move(messages);
  release_heap();
  return ep;
}

void check_episode(const Episode& ep, Report& report) {
  if (ep.payload_mismatches != 0) {
    report.fail(std::to_string(ep.payload_mismatches) +
                " accepted payloads differ from the bytes broadcast");
  }
  if (ep.duplicate_accepts != 0 || ep.unknown_accepts != 0) {
    report.fail(std::to_string(ep.duplicate_accepts) + " duplicate and " +
                std::to_string(ep.unknown_accepts) + " unknown accepts");
  }
  if (ep.off_schedule != 0) {
    report.fail(std::to_string(ep.off_schedule) +
                " broadcasts missing or not sent at their due time");
  }
}

/// The same (config, seed) must replay event for event.
void check_same_execution(const Episode& a, const Episode& b,
                          const std::string& what, Report& report) {
  if (a.events != b.events || a.snapshot != b.snapshot) {
    report.fail(what + ": des.events " + std::to_string(a.events) + " vs " +
                std::to_string(b.events) +
                (a.snapshot == b.snapshot ? "" : ", Metrics snapshots differ"));
  }
}

}  // namespace

void run_des(const Options& options, Report& report) {
  const DesWorkload w =
      options.workload == "des_scale" ? des_scale() : des_lossy();
  // Episode e runs its own schedule, drawn from (seed, e); the count
  // depends only on --seconds, so a (seed, seconds) pair fixes every
  // sim-time figure.
  const std::size_t episodes =
      options.trace ? 1
                    : std::max<std::size_t>(
                          3, static_cast<std::size_t>(
                                 std::lround(options.seconds / w.episode_s)));
  const auto schedule_of = [&](std::size_t e) {
    return poisson_schedule(options.seed ^ (0x9e3779b97f4a7c15ULL * (e + 1)),
                            w.rate_per_s, w.messages, w.config.senders);
  };
  std::vector<std::vector<std::uint8_t>> payloads;
  for (std::size_t i = 0; i < w.messages; ++i) {
    payloads.push_back(sim::make_payload(i, w.config.payload_bytes));
  }
  const double n = static_cast<double>(w.config.n);

  if (!options.trace) {
    std::vector<SubRun> runs;
    for (std::size_t e = 0; e < episodes; ++e) {
      Episode ep = run_episode(w, schedule_of(e), payloads, nullptr);
      check_episode(ep, report);
      SubRun r;
      r.setup_s.push_back(ep.setup_s);
      r.node_s_per_s = n * ep.sim_s / ep.run_wall_s;
      r.cpu_s = ep.run_cpu_s;
      r.messages = std::move(ep.messages);
      runs.push_back(std::move(r));
    }
    report_end_to_end(runs, report);
    return;
  }

  // Traced run: episode 0 untraced (after one warm-up run of it, so the
  // overhead ratio compares warm runs), then traced in fixed sim-time
  // slices. The ledger describes the measured execution only if both
  // replay event for event.
  const std::vector<Arrival> schedule = schedule_of(0);
  check_episode(run_episode(w, schedule, payloads, nullptr), report);
  const Episode plain = run_episode(w, schedule, payloads, nullptr);
  check_episode(plain, report);
  DesTrace trace;
  const Episode traced = run_episode(w, schedule, payloads, &trace);
  check_episode(traced, report);
  check_same_execution(plain, traced, "traced run differs from untraced run",
                       report);
  const DeliveryLatency d = delivery_latency(traced.messages);
  report_delivery(d.expected_pairs, d.accepted_pairs, report);

  const ProfileTotals& p = trace.profile;
  const Ledger ledger =
      des_ledger(trace.slice_wall_ms, p.ms(obs::ProfileCategory::kEventDispatch),
                 p.leaves());
  check_ledger(ledger, report);

  LayerValues layers;
  layers.set("des.events", static_cast<double>(traced.events));
  layers.set("des.events_per_s",
             static_cast<double>(plain.events) / plain.run_wall_s);
  layers.set("des.dispatch_ms", p.ms(obs::ProfileCategory::kEventDispatch));
  layers.set("des.queue_self_ms", ledger.queue_self_ms);
  layers.set("des.pending_max", static_cast<double>(trace.pending_max));
  protocol_layers(trace.counters, p, trace.peaks, trace.overlay_size,
                  d.accepted_pairs, ledger, layers);
  // Each delivered frame is one receive-handler call.
  layers.set("node.rx_calls",
             static_cast<double>(trace.counters.frames_delivered));
  layers.set("node.broadcast_ms", trace.broadcast_ms);
  layers.set("impair.forwarded", static_cast<double>(trace.impairment.forwarded));
  layers.set("impair.dropped", static_cast<double>(trace.impairment.dropped));
  layers.set("load.offered", static_cast<double>(trace.offered));
  layers.set("load.gen_lag_p50_ms", trace.lag.p50);
  layers.set("load.gen_lag_p99_ms", trace.lag.p99);
  layers.set("trace.overhead", trace.run_wall_ms / (plain.run_wall_s * 1e3));
  layers.set("trace.coverage",
             ratio(p.ms(obs::ProfileCategory::kEventDispatch),
                   trace.run_cpu_ms));
  layers.emit(report);
}

}  // namespace perfbench
