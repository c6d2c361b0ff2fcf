// E11 — engineering micro-benchmarks (google-benchmark): the crypto and
// kernel primitives every simulated second leans on. Not a paper figure;
// used to keep the substrate honest (e.g. a slow verify would distort the
// protocol-level results by limiting feasible experiment sizes).
#include <benchmark/benchmark.h>

#include <memory>

#include "core/message.h"
#include "crypto/signature.h"
#include "crypto/siphash.h"
#include "des/event_queue.h"
#include "des/rng.h"
#include "des/simulator.h"
#include "mobility/static_mobility.h"
#include "obs/profiler.h"
#include "radio/medium.h"
#include "radio/propagation.h"
#include "radio/radio.h"
#include "util/bytes.h"

namespace {

using namespace byzcast;

void BM_SipHash(benchmark::State& state) {
  std::vector<std::uint8_t> data(static_cast<std::size_t>(state.range(0)), 7);
  crypto::SipKey key{1, 2};
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::siphash24(key, data));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_SipHash)->Arg(16)->Arg(256)->Arg(4096);

void BM_SignatureSign(benchmark::State& state) {
  crypto::Pki pki(des::Rng(1));
  crypto::Signer signer = pki.register_node(1);
  std::vector<std::uint8_t> data(256, 7);
  for (auto _ : state) {
    benchmark::DoNotOptimize(signer.sign(data));
  }
}
BENCHMARK(BM_SignatureSign);

void BM_SignatureVerify(benchmark::State& state) {
  crypto::Pki pki(des::Rng(1));
  // Realistic registry size: verification includes the key lookup.
  crypto::Signer signer = pki.register_node(0);
  for (NodeId id = 1; id < 100; ++id) pki.register_node(id);
  std::vector<std::uint8_t> data(256, 7);
  crypto::Signature sig = signer.sign(data);
  for (auto _ : state) {
    benchmark::DoNotOptimize(pki.verify(0, data, sig));
  }
}
BENCHMARK(BM_SignatureVerify);

void BM_EventQueueScheduleAndPop(benchmark::State& state) {
  for (auto _ : state) {
    des::EventQueue queue;
    for (int i = 0; i < 1000; ++i) {
      queue.schedule(static_cast<des::SimTime>((i * 37) % 997), [] {});
    }
    while (!queue.empty()) queue.pop();
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_EventQueueScheduleAndPop);

void BM_DataSerializeParse(benchmark::State& state) {
  core::DataMsg msg;
  msg.id = {3, 17};
  msg.payload = std::vector<std::uint8_t>(256, 9);
  msg.sig = {0x1234};
  msg.gossip_sig = {0x5678};
  for (auto _ : state) {
    auto bytes = core::serialize(core::Packet{msg});
    benchmark::DoNotOptimize(core::parse_packet(bytes));
  }
}
BENCHMARK(BM_DataSerializeParse);

// --- zero-copy pipeline benches (ISSUE 2) ----------------------------------
// These report BufferStats deltas alongside wall time: allocations and
// bytes memcpy'd per operation. They are the executable statement of the
// copy-count invariant in DESIGN.md §5a.

/// serialize + shared parse: exactly one allocation (the wire buffer) and
/// zero byte copies per round trip — the parsed payload borrows a slice.
void BM_ZeroCopySerializeParseShared(benchmark::State& state) {
  core::DataMsg msg;
  msg.id = {3, 17};
  msg.payload = std::vector<std::uint8_t>(
      static_cast<std::size_t>(state.range(0)), 9);
  msg.sig = {0x1234};
  msg.gossip_sig = {0x5678};
  util::BufferStats::reset();
  for (auto _ : state) {
    util::Buffer wire = core::serialize(core::Packet{msg});
    benchmark::DoNotOptimize(core::parse_packet_shared(wire));
  }
  const auto iters = static_cast<double>(state.iterations());
  state.counters["allocs/op"] =
      static_cast<double>(util::BufferStats::allocations) / iters;
  state.counters["bytes_copied/op"] =
      static_cast<double>(util::BufferStats::bytes_copied) / iters;
  if (util::BufferStats::bytes_copied != 0) {
    state.SkipWithError("shared parse copied payload bytes");
  }
}
BENCHMARK(BM_ZeroCopySerializeParseShared)->Arg(64)->Arg(1024)->Arg(16384);

/// Medium fan-out to N in-range receivers: the delivered frames all share
/// the transmitted buffer — zero allocations and zero byte copies per
/// receiver, regardless of payload size.
void BM_ZeroCopyMediumFanout(benchmark::State& state) {
  const auto receivers = static_cast<std::size_t>(state.range(0));
  des::Simulator sim(1);
  radio::MediumConfig config;
  config.tx_jitter_max = 0;
  config.collisions_enabled = false;  // isolate the fan-out path
  radio::Medium medium(sim, std::make_unique<radio::UnitDisk>(), config);
  std::vector<std::unique_ptr<mobility::StaticMobility>> mobility;
  std::vector<std::unique_ptr<radio::Radio>> radios;
  std::size_t delivered = 0;
  for (std::size_t i = 0; i < receivers + 1; ++i) {
    // Everyone within range 100 of the sender at the origin.
    mobility.push_back(std::make_unique<mobility::StaticMobility>(
        geo::Vec2{static_cast<double>(i % 10), static_cast<double>(i / 10)}));
    radios.push_back(std::make_unique<radio::Radio>(
        medium, static_cast<NodeId>(i), *mobility.back(), 100.0));
    radios.back()->set_receive_handler(
        [&delivered](const radio::Frame&) { ++delivered; });
  }
  util::Buffer payload(std::vector<std::uint8_t>(256, 7));
  util::BufferStats::reset();
  for (auto _ : state) {
    radios[0]->send(payload);  // refcount bump, no byte copy
    sim.run_until(sim.now() + des::seconds(1));
  }
  const auto iters = static_cast<double>(state.iterations());
  state.counters["deliveries/op"] = static_cast<double>(delivered) / iters;
  state.counters["allocs/op"] =
      static_cast<double>(util::BufferStats::allocations) / iters;
  state.counters["bytes_copied/op"] =
      static_cast<double>(util::BufferStats::bytes_copied) / iters;
  if (util::BufferStats::bytes_copied != 0 ||
      util::BufferStats::allocations != 0) {
    state.SkipWithError("fan-out copied or reallocated payload bytes");
  }
}
BENCHMARK(BM_ZeroCopyMediumFanout)->Arg(4)->Arg(16)->Arg(64);

void BM_RngNextBelow(benchmark::State& state) {
  des::Rng rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rng.next_below(1000));
  }
}
BENCHMARK(BM_RngNextBelow);

// Guards the profiler's disabled-path overhead claim (DESIGN.md §10):
// a disabled BYZCAST_PROFILE scope is one relaxed load plus a branch and
// must record nothing. The time/op here is what every event dispatch
// pays with profiling off; the SkipWithError is the functional
// invariant, visible in CI's bench smoke output.
void BM_ProfilerDisabledScope(benchmark::State& state) {
  obs::Profiler::set_enabled(false);
  obs::Profiler::reset();
  for (auto _ : state) {
    BYZCAST_PROFILE(obs::ProfileCategory::kEventDispatch);
    benchmark::ClobberMemory();
  }
  if (obs::Profiler::stats(obs::ProfileCategory::kEventDispatch).count != 0) {
    state.SkipWithError("disabled profiler scope recorded samples");
  }
}
BENCHMARK(BM_ProfilerDisabledScope);

void BM_ProfilerEnabledScope(benchmark::State& state) {
  obs::Profiler::set_enabled(true);
  obs::Profiler::reset();
  for (auto _ : state) {
    BYZCAST_PROFILE(obs::ProfileCategory::kEventDispatch);
    benchmark::ClobberMemory();
  }
  obs::Profiler::set_enabled(false);
  if (obs::Profiler::stats(obs::ProfileCategory::kEventDispatch).count == 0) {
    state.SkipWithError("enabled profiler scope recorded nothing");
  }
  obs::Profiler::reset();
}
BENCHMARK(BM_ProfilerEnabledScope);

}  // namespace

BENCHMARK_MAIN();
