// live_loopback: 16 ByzcastNodes on one net::IoLoop thread in this
// process, each on its own loopback net::UdpTransport holding the full
// peer list (byzcastd's localhost layout), default ProtocolConfig, no
// impairment. The only workload that runs poll/dispatch, sendto/recvfrom
// and the BZC1 datagram decode; it bypasses des/ and radio/ entirely.
//
// The traced run wraps each node's Env and Transport in timing
// decorators, so every node callback (receive handler, timer, the
// generator's broadcast call) and every send is a span the benchmark
// measures from outside the library.
#include <sys/types.h>
#include <unistd.h>

#include <functional>
#include <memory>
#include <stdexcept>
#include <unordered_map>
#include <vector>

#include "crypto/signature.h"
#include "load.h"
#include "net/io_loop.h"
#include "net/udp_backend.h"
#include "sim/runner.h"
#include "workload.h"

namespace perfbench {
namespace {

using namespace byzcast;

constexpr std::size_t kNodes = 16;
constexpr std::size_t kOrigins = 4;
constexpr double kRatePerS = 200;
constexpr std::size_t kPayloadBytes = 64;
/// Load per fleet. A run measures --seconds as consecutive fleets of this
/// much load each. Fleets are kept short because every stored DATA
/// message pins the 64 KiB receive buffer its datagram arrived in, so
/// resident memory grows ~190 MB per second of load at 200 msgs/s.
constexpr double kFleetLoadS = 5;
constexpr des::SimDuration kWarmup = des::millis(1500);
constexpr des::SimDuration kDrain = des::seconds(1);
/// Fleets built per run for the set-up median (the last one runs).
constexpr int kSetups = 10;
constexpr des::SimDuration kSampleEvery = des::millis(50);
constexpr des::SimTime kNotAccepted = ~des::SimTime{0};

class SpanGuard {
 public:
  SpanGuard(SpanStack& spans, Span span) : spans_(spans) {
    spans_.open(span, steady_ns());
  }
  ~SpanGuard() { spans_.close(steady_ns()); }
  SpanGuard(const SpanGuard&) = delete;
  SpanGuard& operator=(const SpanGuard&) = delete;

 private:
  SpanStack& spans_;
};

/// Runs every timer callback a node schedules inside a kTimer span.
class TimedEnv final : public net::Env {
 public:
  TimedEnv(net::IoLoop& loop, SpanStack& spans) : loop_(loop), spans_(spans) {}

  [[nodiscard]] des::SimTime now() const override { return loop_.now(); }
  net::TimerId schedule_after(des::SimDuration delay,
                              std::function<void()> action) override {
    return loop_.schedule_after(delay, [this, action = std::move(action)] {
      SpanGuard span(spans_, Span::kTimer);
      action();
    });
  }
  bool cancel(net::TimerId id) override { return loop_.cancel(id); }
  des::Rng split_rng() override { return loop_.split_rng(); }

 private:
  net::IoLoop& loop_;
  SpanStack& spans_;
};

/// Times send() as a kSend span and runs the node's receive handler
/// inside a kRx span.
class TimedTransport final : public net::Transport {
 public:
  TimedTransport(net::Transport& inner, SpanStack& spans)
      : inner_(inner), spans_(spans) {}

  void send(util::Buffer payload) override {
    SpanGuard span(spans_, Span::kSend);
    inner_.send(std::move(payload));
  }
  void set_receive_handler(ReceiveHandler handler) override {
    inner_.set_receive_handler(
        [this, handler = std::move(handler)](const radio::Frame& frame) {
          SpanGuard span(spans_, Span::kRx);
          handler(frame);
        });
  }
  [[nodiscard]] NodeId local_id() const override { return inner_.local_id(); }

 private:
  net::Transport& inner_;
  SpanStack& spans_;
};

/// One in-process fleet. Members are declared so that nodes go first on
/// destruction, then the decorators and sockets they use, then the loop.
struct Fleet {
  Fleet(std::uint64_t seed, std::uint16_t base_port, SpanStack* spans)
      : loop(seed), pki(des::Rng(seed ^ 0x6b657973ULL)) {
    std::vector<net::UdpPeer> peers;
    for (std::size_t i = 0; i < kNodes; ++i) {
      peers.push_back(net::UdpPeer{static_cast<NodeId>(i), "127.0.0.1",
                                   static_cast<std::uint16_t>(base_port + i)});
    }
    for (std::size_t i = 0; i < kNodes; ++i) {
      const auto id = static_cast<NodeId>(i);
      sockets.push_back(std::make_unique<net::UdpTransport>(
          loop, id, "127.0.0.1", static_cast<std::uint16_t>(base_port + i),
          peers));
      net::Env* env = &loop;
      net::Transport* transport = sockets.back().get();
      if (spans != nullptr) {
        envs.push_back(std::make_unique<TimedEnv>(loop, *spans));
        timed.push_back(std::make_unique<TimedTransport>(*transport, *spans));
        env = envs.back().get();
        transport = timed.back().get();
      }
      nodes.push_back(std::make_unique<core::ByzcastNode>(
          *env, *transport, pki, pki.register_node(id), core::ProtocolConfig{},
          &metrics));
      nodes.back()->set_expected_targets(kNodes - 1);
    }
    for (auto& node : nodes) node->start();
  }

  [[nodiscard]] std::vector<core::ByzcastNode*> view() const {
    std::vector<core::ByzcastNode*> out;
    for (const auto& node : nodes) out.push_back(node.get());
    return out;
  }

  net::IoLoop loop;
  crypto::Pki pki;
  stats::Metrics metrics;
  std::vector<std::unique_ptr<net::UdpTransport>> sockets;
  std::vector<std::unique_ptr<TimedEnv>> envs;
  std::vector<std::unique_ptr<TimedTransport>> timed;
  std::vector<std::unique_ptr<core::ByzcastNode>> nodes;
};

struct SocketCounters {
  std::uint64_t sent = 0;
  std::uint64_t received = 0;
  std::uint64_t rejected = 0;
  std::uint64_t send_errors = 0;
  std::uint64_t send_retries = 0;
  std::uint64_t send_drops = 0;

  static SocketCounters read(const Fleet& fleet) {
    SocketCounters c;
    for (const auto& s : fleet.sockets) {
      c.sent += s->datagrams_sent();
      c.received += s->datagrams_received();
      c.rejected += s->datagrams_rejected();
      c.send_errors += s->send_errors();
      c.send_retries += s->send_retries();
      c.send_drops += s->send_drops();
    }
    return c;
  }
  [[nodiscard]] SocketCounters minus(const SocketCounters& b) const {
    return {sent - b.sent,
            received - b.received,
            rejected - b.rejected,
            send_errors - b.send_errors,
            send_retries - b.send_retries,
            send_drops - b.send_drops};
  }
};

struct LiveRun {
  std::vector<double> setup_s;
  double wall_ms = 0;  ///< run phase: load window plus drain
  double cpu_ms = 0;
  std::vector<MessageRecord> messages;
  DeliveryLatency latency;
  std::uint64_t duplicate_accepts = 0;
  std::uint64_t unknown_accepts = 0;
  std::uint64_t payload_mismatches = 0;
  Percentiles lag;
  std::size_t offered = 0;
  // Traced runs only.
  SpanStack spans;
  ProfileTotals profile;
  Counters counters;
  SocketCounters sockets;
  FleetPeaks peaks;
  std::size_t overlay_size = 0;
};

/// Builds a fleet on 16 consecutive loopback ports starting at
/// `base_port`, moving to another range when a port is taken.
std::unique_ptr<Fleet> build_fleet(std::uint64_t seed, SpanStack* spans,
                                   std::uint16_t& base_port) {
  for (int attempt = 0; attempt < 32; ++attempt) {
    try {
      return std::make_unique<Fleet>(seed, base_port, spans);
    } catch (const std::runtime_error&) {
      base_port = static_cast<std::uint16_t>(
          20000 + (base_port - 20000 + 997 * kNodes) % 40000);
    }
  }
  throw std::runtime_error("live_loopback: no free loopback port range");
}

LiveRun run_fleet(std::uint64_t seed, const std::vector<Arrival>& schedule,
                  const std::vector<std::vector<std::uint8_t>>& payloads,
                  bool traced) {
  LiveRun run;
  SpanStack* spans = traced ? &run.spans : nullptr;
  auto base_port = static_cast<std::uint16_t>(
      20000 + (seed * 7919 + static_cast<std::uint64_t>(::getpid()) * 131) %
                  40000);
  std::unique_ptr<Fleet> fleet;
  for (int i = 0; i < kSetups; ++i) {
    fleet.reset();
    const std::uint64_t t0 = steady_ns();
    fleet = build_fleet(seed, spans, base_port);
    run.setup_s.push_back(static_cast<double>(steady_ns() - t0) / 1e9);
  }
  net::IoLoop& loop = fleet->loop;
  const std::vector<core::ByzcastNode*> nodes = fleet->view();

  // The fleet's own accept table: duplicate, unknown and wrong-payload
  // accepts are correctness failures.
  std::vector<std::vector<des::SimTime>> accepted(
      schedule.size(), std::vector<des::SimTime>(kNodes, kNotAccepted));
  std::unordered_map<std::uint64_t, std::size_t> index_of;
  const auto key = [](NodeId origin, std::uint32_t seq) {
    return (static_cast<std::uint64_t>(origin) << 32) | seq;
  };
  for (std::size_t j = 0; j < kNodes; ++j) {
    nodes[j]->set_accept_handler(
        [&, j](const core::MessageId& mid,
               std::span<const std::uint8_t> payload) {
          const des::SimTime now = loop.now();
          auto it = index_of.find(key(mid.origin, mid.seq));
          if (it == index_of.end()) {
            ++run.unknown_accepts;
            return;
          }
          des::SimTime& slot = accepted[it->second][j];
          if (slot != kNotAccepted) {
            ++run.duplicate_accepts;
            return;
          }
          slot = now;
          const std::vector<std::uint8_t>& sent = payloads[it->second];
          if (!std::equal(payload.begin(), payload.end(), sent.begin(),
                          sent.end())) {
            ++run.payload_mismatches;
          }
        });
  }

  loop.run_for(kWarmup);

  // Open-loop generator: one loop timer per due arrival; a late timer
  // issues every arrival already due, each timed from its due time.
  const des::SimTime load_start = loop.now();
  std::size_t next = 0;
  LagRecorder lag;
  std::function<void()> fire = [&] {
    while (next < schedule.size() &&
           load_start + schedule[next].due <= loop.now()) {
      const std::size_t i = next++;
      const auto origin = static_cast<NodeId>(schedule[i].origin_slot);
      core::ByzcastNode& node = *nodes[origin];
      index_of.emplace(key(origin, node.next_seq()), i);
      lag.record(load_start + schedule[i].due, loop.now());
      if (spans != nullptr) {
        SpanGuard span(*spans, Span::kBroadcast);
        node.broadcast(payloads[i]);
      } else {
        node.broadcast(payloads[i]);
      }
    }
    if (next < schedule.size()) {
      const des::SimTime at = load_start + schedule[next].due;
      const des::SimTime now = loop.now();
      loop.schedule_after(at > now ? at - now : 0, fire);
    }
  };
  loop.schedule_after(schedule.front().due, fire);

  std::function<void()> sample = [&] {
    run.peaks.sample(nodes);
    loop.schedule_after(kSampleEvery, sample);
  };
  Counters before;
  SocketCounters sockets_before;
  if (traced) {
    sample();
    run.spans.reset();  // drop the spans of set-up and warm-up
    before = Counters::read(fleet->metrics, nodes);
    sockets_before = SocketCounters::read(*fleet);
    obs::Profiler::reset();
    obs::Profiler::set_enabled(true);
  }
  const double cpu_start = process_cpu_s();
  const std::uint64_t wall_start = steady_ns();
  loop.run_for(schedule.back().due + kDrain);
  run.wall_ms = static_cast<double>(steady_ns() - wall_start) / 1e6;
  run.cpu_ms = (process_cpu_s() - cpu_start) * 1e3;
  if (traced) {
    obs::Profiler::set_enabled(false);
    run.profile = ProfileTotals::read();
    run.counters = Counters::read(fleet->metrics, nodes).minus(before);
    run.sockets = SocketCounters::read(*fleet).minus(sockets_before);
    for (const core::ByzcastNode* node : nodes) {
      if (node->in_overlay()) ++run.overlay_size;
    }
  }
  run.lag = lag.summary();
  run.offered = lag.offered();

  std::vector<MessageRecord> messages(schedule.size());
  for (std::size_t i = 0; i < schedule.size(); ++i) {
    messages[i].due_ms =
        static_cast<double>(load_start + schedule[i].due) / 1e3;
    for (std::size_t j = 0; j < kNodes; ++j) {
      if (j == schedule[i].origin_slot) continue;
      const des::SimTime at = accepted[i][j];
      messages[i].accept_ms.push_back(
          at == kNotAccepted ? kNeverMs : static_cast<double>(at) / 1e3);
    }
  }
  run.latency = delivery_latency(messages);
  run.messages = std::move(messages);
  fleet.reset();
  release_heap();
  return run;
}

void check_run(const LiveRun& run, Report& report) {
  if (run.payload_mismatches != 0) {
    report.fail(std::to_string(run.payload_mismatches) +
                " accepted payloads differ from the bytes broadcast");
  }
  if (run.duplicate_accepts != 0 || run.unknown_accepts != 0) {
    report.fail(std::to_string(run.duplicate_accepts) + " duplicate and " +
                std::to_string(run.unknown_accepts) + " unknown accepts");
  }
}

}  // namespace

void run_live(const Options& options, Report& report) {
  const std::size_t fleets =
      options.trace ? 1
                    : std::max<std::size_t>(1, static_cast<std::size_t>(
                                                   std::lround(options.seconds /
                                                               kFleetLoadS)));
  const auto count = static_cast<std::size_t>(kRatePerS * kFleetLoadS);
  // Fleet k runs its own schedule and loop streams, drawn from (seed, k).
  const auto seed_of = [&](std::size_t k) {
    return options.seed ^ (0x9e3779b97f4a7c15ULL * (k + 1));
  };
  std::vector<std::vector<std::uint8_t>> payloads;
  for (std::size_t i = 0; i < count; ++i) {
    payloads.push_back(sim::make_payload(i, kPayloadBytes));
  }

  if (!options.trace) {
    std::vector<SubRun> runs;
    for (std::size_t k = 0; k < fleets; ++k) {
      LiveRun run = run_fleet(
          seed_of(k), poisson_schedule(seed_of(k), kRatePerS, count, kOrigins),
          payloads, false);
      check_run(run, report);
      report.note("fleet " + std::to_string(k) + ": " +
                  std::to_string(run.offered) +
                  " broadcasts, accept p99 " +
                  json_number(run.latency.accept.p99) + " ms, full p99 " +
                  json_number(run.latency.full.p99) + " ms, generator lag p99 " +
                  json_number(run.lag.p99) + " ms");
      SubRun r;
      r.setup_s = run.setup_s;
      r.node_s_per_s = static_cast<double>(kNodes) * run.wall_ms / run.cpu_ms;
      r.cpu_s = run.cpu_ms / 1e3;
      r.messages = std::move(run.messages);
      runs.push_back(std::move(r));
    }
    report_end_to_end(runs, report);
    return;
  }

  const std::uint64_t loop_seed = seed_of(0);
  const std::vector<Arrival> schedule =
      poisson_schedule(loop_seed, kRatePerS, count, kOrigins);
  // Untraced then traced, same seed and schedule: the loop's wall is
  // fixed by the schedule, so tracing overhead shows as CPU.
  const LiveRun plain = run_fleet(loop_seed, schedule, payloads, false);
  check_run(plain, report);
  const LiveRun run = run_fleet(loop_seed, schedule, payloads, true);
  check_run(run, report);
  report_delivery(run.latency.expected_pairs, run.latency.accepted_pairs,
                  report);

  const Ledger ledger =
      live_ledger(run.wall_ms, run.cpu_ms, run.spans, run.profile.leaves());
  check_ledger(ledger, report);

  const double ms = 1e-6;
  const auto& rx = run.spans.totals(Span::kRx);
  const auto& timer = run.spans.totals(Span::kTimer);
  const auto& send = run.spans.totals(Span::kSend);
  const auto deliveries = static_cast<double>(run.latency.accepted_pairs);
  LayerValues layers;
  protocol_layers(run.counters, run.profile, run.peaks, run.overlay_size,
                  run.latency.accepted_pairs, ledger, layers);
  layers.set("node.rx_calls", static_cast<double>(rx.calls));
  layers.set("node.rx_ms", static_cast<double>(rx.total_ns) * ms);
  layers.set("node.timer_calls", static_cast<double>(timer.calls));
  layers.set("node.timer_ms", static_cast<double>(timer.total_ns) * ms);
  layers.set("node.broadcast_ms",
             static_cast<double>(run.spans.totals(Span::kBroadcast).total_ns) *
                 ms);
  layers.set("net.loop_wall_ms", run.wall_ms);
  layers.set("net.idle_ms", ledger.idle_ms);
  layers.set("net.rx_path_ms", ledger.rx_path_ms);
  layers.set("net.rx_path_us_per_datagram",
             ratio(ledger.rx_path_ms * 1e3,
                   static_cast<double>(run.sockets.received)));
  layers.set("net.send_calls", static_cast<double>(send.calls));
  layers.set("net.send_ms", ledger.send_ms);
  layers.set("net.datagrams_sent", static_cast<double>(run.sockets.sent));
  layers.set("net.datagrams_received",
             static_cast<double>(run.sockets.received));
  layers.set("net.datagrams_rejected",
             static_cast<double>(run.sockets.rejected));
  layers.set("net.send_errors", static_cast<double>(run.sockets.send_errors));
  layers.set("net.send_retries", static_cast<double>(run.sockets.send_retries));
  layers.set("net.send_drops", static_cast<double>(run.sockets.send_drops));
  layers.set("net.datagrams_per_delivery",
             ratio(static_cast<double>(run.sockets.received), deliveries));
  layers.set("load.offered", static_cast<double>(run.offered));
  layers.set("load.gen_lag_p50_ms", run.lag.p50);
  layers.set("load.gen_lag_p99_ms", run.lag.p99);
  layers.set("trace.overhead", ratio(run.cpu_ms, plain.cpu_ms));
  layers.set("trace.coverage",
             ratio(static_cast<double>(run.spans.top_level_ns()) * ms,
                   run.cpu_ms));
  layers.emit(report);
}

}  // namespace perfbench
