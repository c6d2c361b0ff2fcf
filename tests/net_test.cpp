// Tests for the net/ layer (DESIGN.md §13, §14): datagram wire format,
// IoLoop timers, the live UDP transport on loopback, radio::Radio as
// the DES Transport, the deterministic impairment decorator, and the
// PeerHealth liveness tracker.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <functional>
#include <memory>
#include <set>
#include <stdexcept>
#include <utility>
#include <vector>

#include "core/byzcast_node.h"
#include "des/simulator.h"
#include "mobility/static_mobility.h"
#include "net/datagram.h"
#include "net/impairment.h"
#include "net/io_loop.h"
#include "net/peer_health.h"
#include "net/timer.h"
#include "net/udp_backend.h"
#include "radio/medium.h"
#include "radio/propagation.h"
#include "sim/network_builder.h"
#include "sim/runner.h"

namespace byzcast::net {
namespace {

// --- datagram wire format --------------------------------------------------

TEST(DatagramTest, RoundTrip) {
  util::Buffer payload({1, 2, 3, 4, 5});
  util::Buffer wire = encode_datagram(7, payload);
  ASSERT_EQ(wire.size(), kDatagramHeaderBytes + payload.size());

  std::optional<radio::Frame> frame = decode_datagram(wire);
  ASSERT_TRUE(frame.has_value());
  EXPECT_EQ(frame->sender, 7u);
  ASSERT_EQ(frame->payload.size(), payload.size());
  EXPECT_TRUE(std::equal(frame->payload.data(),
                         frame->payload.data() + frame->payload.size(),
                         payload.data()));
}

TEST(DatagramTest, RoundTripEmptyPayload) {
  util::Buffer wire = encode_datagram(0, util::Buffer{});
  ASSERT_EQ(wire.size(), kDatagramHeaderBytes);
  std::optional<radio::Frame> frame = decode_datagram(wire);
  ASSERT_TRUE(frame.has_value());
  EXPECT_EQ(frame->sender, 0u);
  EXPECT_EQ(frame->payload.size(), 0u);
}

TEST(DatagramTest, RejectsTruncationSweep) {
  // Corruption-sweep style (core/message.h): every proper prefix of the
  // header must be rejected, never crash.
  util::Buffer wire = encode_datagram(3, util::Buffer({9, 9, 9}));
  for (std::size_t len = 0; len < kDatagramHeaderBytes; ++len) {
    std::vector<std::uint8_t> cut(wire.data(), wire.data() + len);
    EXPECT_FALSE(decode_datagram(util::Buffer(std::move(cut))).has_value())
        << "accepted a " << len << "-byte prefix";
  }
  // The full header with an empty payload is still a valid datagram.
  std::vector<std::uint8_t> exact(wire.data(),
                                  wire.data() + kDatagramHeaderBytes);
  EXPECT_TRUE(decode_datagram(util::Buffer(std::move(exact))).has_value());
}

TEST(DatagramTest, RejectsCorruptedEnvelopeSweep) {
  // Flip one bit in each envelope byte: magic and version corruption must
  // reject; the sender field has no redundancy, so a flipped sender still
  // decodes (to the wrong advisory id) — signatures catch that upstream.
  util::Buffer clean = encode_datagram(3, util::Buffer({1, 2, 3}));
  for (std::size_t i = 0; i < kDatagramHeaderBytes; ++i) {
    std::vector<std::uint8_t> bytes(clean.data(),
                                    clean.data() + clean.size());
    bytes[i] ^= 0x01;
    std::optional<radio::Frame> frame =
        decode_datagram(util::Buffer(std::move(bytes)));
    if (i < 5) {
      EXPECT_FALSE(frame.has_value()) << "accepted corrupted byte " << i;
    } else {
      ASSERT_TRUE(frame.has_value());
      EXPECT_NE(frame->sender, 3u);
    }
  }
}

TEST(DatagramTest, RejectsWrongVersion) {
  util::Buffer wire = encode_datagram(1, util::Buffer({42}));
  std::vector<std::uint8_t> bytes(wire.data(), wire.data() + wire.size());
  bytes[4] = kDatagramVersion + 1;
  EXPECT_FALSE(decode_datagram(util::Buffer(std::move(bytes))).has_value());
}

// --- IoLoop ----------------------------------------------------------------

TEST(IoLoopTest, FiresTimersInDeadlineOrder) {
  IoLoop loop(1);
  std::vector<int> order;
  loop.schedule_after(des::millis(30), [&] { order.push_back(3); });
  loop.schedule_after(des::millis(10), [&] { order.push_back(1); });
  loop.schedule_after(des::millis(20), [&] { order.push_back(2); });
  loop.run_for(des::millis(100));
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(IoLoopTest, CancelPreventsFiring) {
  IoLoop loop(1);
  bool fired = false;
  TimerId id = loop.schedule_after(des::millis(5), [&] { fired = true; });
  EXPECT_TRUE(loop.cancel(id));
  EXPECT_FALSE(loop.cancel(id));  // already gone
  loop.run_for(des::millis(40));
  EXPECT_FALSE(fired);
}

TEST(IoLoopTest, RunReturnsWhenNothingToWaitFor) {
  IoLoop loop(1);
  int fired = 0;
  loop.schedule_after(des::millis(1), [&] { ++fired; });
  // Unbounded run() exits once the last timer fired and no fd is watched.
  loop.run();
  EXPECT_EQ(fired, 1);
}

TEST(IoLoopTest, PeriodicTimerTicksAgainstWallClock) {
  IoLoop loop(1);
  int ticks = 0;
  net::PeriodicTimer timer(loop, des::millis(10), [&] { ++ticks; });
  timer.start();
  loop.run_for(des::millis(120));
  timer.stop();
  // Wall-clock scheduling jitter: demand a sane band, not an exact count.
  EXPECT_GE(ticks, 4);
  EXPECT_LE(ticks, 13);
}

TEST(IoLoopTest, TimerWaitIsNotRoundedToMilliseconds) {
  // 40 chained 100 us timers: a loop that rounds its wait up to a whole
  // millisecond fires each about 900 us late; a microsecond wait leaves
  // only the kernel's timer slack.
  IoLoop loop(1);
  constexpr std::size_t kTimers = 40;
  constexpr des::SimDuration kStep = des::micros(100);
  std::vector<des::SimDuration> lateness;
  des::SimTime due = 0;
  std::function<void()> tick = [&] {
    lateness.push_back(loop.now() - due);
    if (lateness.size() == kTimers) {
      loop.stop();
      return;
    }
    due = loop.now() + kStep;
    loop.schedule_after(kStep, tick);
  };
  due = loop.now() + kStep;
  loop.schedule_after(kStep, tick);
  loop.run_for(des::seconds(5));

  ASSERT_EQ(lateness.size(), kTimers);
  std::nth_element(lateness.begin(), lateness.begin() + kTimers / 2,
                   lateness.end());
  EXPECT_LT(lateness[kTimers / 2], des::micros(500));
}

TEST(IoLoopTest, StaleIdCannotCancelAReusedTimer) {
  // The loop's timer queue recycles the slot of a fired timer: the next
  // timer armed reuses it, and the fired timer's id must not cancel it.
  IoLoop loop(1);
  int first_fired = 0;
  int second_fired = 0;
  const TimerId first = loop.schedule_after(0, [&] { ++first_fired; });
  loop.run();  // fires `first`, then nothing is left to wait for
  ASSERT_EQ(first_fired, 1);

  const TimerId second =
      loop.schedule_after(des::millis(1), [&] { ++second_fired; });
  EXPECT_NE(second, 0u);
  EXPECT_NE(second, first);
  EXPECT_FALSE(loop.cancel(first));
  EXPECT_EQ(loop.pending_timers(), 1u);
  loop.run();
  EXPECT_EQ(second_fired, 1);
  EXPECT_FALSE(loop.cancel(second));
}

TEST(IoLoopTest, SplitRngStreamsDiffer) {
  IoLoop loop(99);
  des::Rng a = loop.split_rng();
  des::Rng b = loop.split_rng();
  bool differ = false;
  for (int i = 0; i < 8 && !differ; ++i) differ = a.next_u64() != b.next_u64();
  EXPECT_TRUE(differ);
}

// --- UDP transport on loopback ---------------------------------------------

// Loopback sockets; picks ports from the pid so parallel ctest instances
// don't collide.
std::uint16_t test_base_port() {
  return static_cast<std::uint16_t>(22000 + (::getpid() % 2000) * 4);
}

TEST(UdpTransportTest, LoopbackEcho) {
  const std::uint16_t base = test_base_port();
  IoLoop loop(1);
  std::vector<UdpPeer> peers{{0, "127.0.0.1", base},
                             {1, "127.0.0.1", static_cast<std::uint16_t>(
                                                  base + 1)}};
  UdpTransport a(loop, 0, "127.0.0.1", base, peers);
  UdpTransport b(loop, 1, "127.0.0.1",
                 static_cast<std::uint16_t>(base + 1), peers);

  std::vector<std::pair<NodeId, std::size_t>> got;
  b.set_receive_handler([&](const radio::Frame& frame) {
    got.emplace_back(frame.sender, frame.payload.size());
    // Echo back so both directions get exercised.
    b.send(util::Buffer({0xAA}));
  });
  bool echoed = false;
  a.set_receive_handler([&](const radio::Frame& frame) {
    echoed = frame.sender == 1 && frame.payload.size() == 1;
    loop.stop();
  });

  loop.schedule_after(0, [&] { a.send(util::Buffer({1, 2, 3})); });
  loop.run_for(des::seconds(5));

  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0].first, 0u);
  EXPECT_EQ(got[0].second, 3u);
  EXPECT_TRUE(echoed);
  EXPECT_EQ(a.datagrams_sent(), 1u);
  EXPECT_EQ(b.datagrams_received(), 1u);
}

TEST(UdpTransportTest, RejectsMalformedDatagrams) {
  const std::uint16_t base = static_cast<std::uint16_t>(test_base_port() + 2);
  IoLoop loop(1);
  std::vector<UdpPeer> peers{{0, "127.0.0.1", base},
                             {1, "127.0.0.1", static_cast<std::uint16_t>(
                                                  base + 1)}};
  UdpTransport victim(loop, 0, "127.0.0.1", base, peers);
  int delivered = 0;
  victim.set_receive_handler([&](const radio::Frame&) { ++delivered; });

  // A raw socket spraying garbage straight at the victim's port.
  int raw = ::socket(AF_INET, SOCK_DGRAM, 0);
  ASSERT_GE(raw, 0);
  sockaddr_in to{};
  to.sin_family = AF_INET;
  to.sin_port = htons(base);
  ASSERT_EQ(::inet_pton(AF_INET, "127.0.0.1", &to.sin_addr), 1);
  const std::vector<std::vector<std::uint8_t>> garbage = {
      {},                            // sweeps are below; empty datagram
      {0x42},                        // short
      {0xDE, 0xAD, 0xBE, 0xEF, 1, 0, 0, 0, 0},  // wrong magic
      {0x42, 0x5A, 0x43, 0x31, 9, 0, 0, 0, 0},  // wrong version
      {0x42, 0x5A, 0x43, 0x31, 1, 0, 0, 0, 0},  // valid, sender 0 == self
  };
  for (const auto& datagram : garbage) {
    ::sendto(raw, datagram.data(), datagram.size(), 0,
             reinterpret_cast<const sockaddr*>(&to), sizeof(to));
  }
  ::close(raw);

  loop.run_for(des::millis(300));
  EXPECT_EQ(delivered, 0);
  EXPECT_EQ(victim.datagrams_rejected(), garbage.size());
}

TEST(UdpTransportTest, BadPeerAddressThrowsWithoutLeakingTheSocket) {
  // The lowest free descriptor is reused, so a leaked socket would shift
  // the number the next socket gets.
  const int before = ::socket(AF_INET, SOCK_DGRAM, 0);
  ASSERT_GE(before, 0);
  ::close(before);
  IoLoop loop(1);
  const std::uint16_t base = test_base_port();
  const std::vector<UdpPeer> peers{{0, "127.0.0.1", base},
                                   {1, "not-an-address", base}};
  EXPECT_THROW(UdpTransport(loop, 0, "127.0.0.1", base, peers),
               std::runtime_error);
  const int after = ::socket(AF_INET, SOCK_DGRAM, 0);
  ::close(after);
  EXPECT_EQ(after, before);
}

TEST(UdpTransportTest, ReceivedPayloadPinsOnlyItsBytes) {
  // Payloads of 1 B, about 1 KB and the largest that fits one IPv4 UDP
  // datagram (65 507 bytes with the envelope) each arrive byte-identical,
  // backed by an allocation no larger than their datagram, and the copy
  // out of the receive scratch is counted.
  const std::uint16_t base = static_cast<std::uint16_t>(test_base_port() + 2);
  IoLoop loop(1);
  std::vector<UdpPeer> peers{{0, "127.0.0.1", base},
                             {1, "127.0.0.1", static_cast<std::uint16_t>(
                                                  base + 1)}};
  UdpTransport sender(loop, 0, "127.0.0.1", base, peers);
  UdpTransport receiver(loop, 1, "127.0.0.1",
                        static_cast<std::uint16_t>(base + 1), peers);

  constexpr std::size_t kMaxUdpPayload = 65507;
  const std::vector<std::size_t> sizes{1, 1000,
                                       kMaxUdpPayload - kDatagramHeaderBytes};
  std::vector<util::Buffer> sent;
  for (std::size_t size : sizes) {
    std::vector<std::uint8_t> bytes(size);
    for (std::size_t i = 0; i < size; ++i) {
      bytes[i] = static_cast<std::uint8_t>(i * 31 + size);
    }
    sent.emplace_back(std::move(bytes));
  }
  std::vector<util::Buffer> got;
  receiver.set_receive_handler([&](const radio::Frame& frame) {
    got.push_back(frame.payload);
    if (got.size() == sent.size()) loop.stop();
  });

  const std::uint64_t copied_before =
      util::BufferStats::bytes_copied.load(std::memory_order_relaxed);
  loop.schedule_after(0, [&] {
    for (const util::Buffer& payload : sent) sender.send(payload);
  });
  loop.run_for(des::seconds(5));
  const std::uint64_t copied =
      util::BufferStats::bytes_copied.load(std::memory_order_relaxed) -
      copied_before;

  ASSERT_EQ(got.size(), sent.size());
  std::size_t payload_bytes = 0;
  for (const util::Buffer& payload : got) {
    auto match = std::find(sent.begin(), sent.end(), payload);
    ASSERT_NE(match, sent.end())
        << "a " << payload.size() << "-byte payload arrived altered";
    EXPECT_LE(payload.allocation_size(),
              payload.size() + kDatagramHeaderBytes)
        << "a " << payload.size() << "-byte payload pins "
        << payload.allocation_size() << " bytes";
    payload_bytes += payload.size();
  }
  EXPECT_EQ(payload_bytes, 1 + 1000 + kMaxUdpPayload - kDatagramHeaderBytes);
  EXPECT_EQ(copied, payload_bytes);
  EXPECT_EQ(receiver.datagrams_received(), sent.size());
  EXPECT_EQ(receiver.datagrams_rejected(), 0u);
}

// --- radio::Radio as the DES Transport ----------------------------------------

/// A hand-built 4-node all-in-range fleet: the simulator is every node's
/// Env and its radio its Transport, through the one (Env&, Transport&)
/// constructor. Node 0 broadcasts three times; everyone accepts all three.
TEST(RadioTransportTest, FleetDeliversEveryBroadcast) {
  constexpr std::size_t kN = 4;
  des::Simulator sim(7);
  stats::Metrics metrics;
  crypto::Pki pki{des::Rng(42)};
  radio::MediumConfig mc;
  mc.collisions_enabled = false;
  mc.base_loss_prob = 0.0;
  radio::Medium medium(sim, std::make_unique<radio::UnitDisk>(), mc,
                       &metrics);

  std::vector<std::unique_ptr<mobility::MobilityModel>> mobility;
  std::vector<std::unique_ptr<radio::Radio>> radios;
  std::vector<std::unique_ptr<core::ByzcastNode>> nodes;
  std::vector<std::set<std::pair<NodeId, std::uint32_t>>> delivered(kN);
  for (NodeId id = 0; id < kN; ++id) {
    mobility.push_back(std::make_unique<mobility::StaticMobility>(
        geo::Vec2{static_cast<double>(id), 0}));
    radios.push_back(
        std::make_unique<radio::Radio>(medium, id, *mobility.back(), 100));
    nodes.push_back(std::make_unique<core::ByzcastNode>(
        sim, *radios.back(), pki, pki.register_node(id),
        core::ProtocolConfig{}, &metrics));
    nodes.back()->set_accept_handler(
        [&delivered, id](const core::MessageId& mid,
                         std::span<const std::uint8_t>) {
          delivered[id].emplace(mid.origin, mid.seq);
        });
    nodes.back()->start();
  }

  for (std::size_t i = 0; i < 3; ++i) {
    sim.schedule_at(des::seconds(2) + des::millis(500) * i, [&, i] {
      nodes[0]->broadcast(sim::make_payload(i, 32));
    });
  }
  sim.run_until(des::seconds(8));
  for (NodeId id = 1; id < kN; ++id) {
    EXPECT_EQ(delivered[id].size(), 3u) << "node " << id;
  }
}

TEST(RadioTransportTest, TransportExposesRadioIdentity) {
  des::Simulator sim(1);
  stats::Metrics metrics;
  radio::MediumConfig mc;
  radio::Medium medium(sim, std::make_unique<radio::UnitDisk>(), mc,
                       &metrics);
  mobility::StaticMobility still({0, 0});
  radio::Radio radio(medium, 5, still, 100);
  const Transport& transport = radio;
  EXPECT_EQ(transport.local_id(), 5u);
}

// --- ImpairedTransport -----------------------------------------------------

/// A transport whose ingress the test drives by hand and whose egress it
/// records — the minimal inner for decorator tests.
class ScriptedTransport final : public Transport {
 public:
  void send(util::Buffer payload) override {
    sent.push_back(std::move(payload));
  }
  void set_receive_handler(ReceiveHandler handler) override {
    handler_ = std::move(handler);
  }
  [[nodiscard]] NodeId local_id() const override { return 0; }

  void inject(NodeId sender, std::initializer_list<std::uint8_t> bytes) {
    radio::Frame frame;
    frame.sender = sender;
    frame.payload = util::Buffer(bytes);
    if (handler_) handler_(frame);
  }

  std::vector<util::Buffer> sent;

 private:
  ReceiveHandler handler_;
};

TEST(ImpairmentTest, FlipRandomByteChangesExactlyOneByte) {
  des::Rng rng(3);
  std::vector<std::uint8_t> bytes(16, 0x55);
  flip_random_byte(bytes.data(), bytes.size(), rng);
  int changed = 0;
  for (std::uint8_t b : bytes) changed += b != 0x55;
  EXPECT_EQ(changed, 1);
  flip_random_byte(nullptr, 0, rng);  // empty span: must not crash
}

TEST(ImpairmentTest, InertConfigForwardsSynchronously) {
  des::Simulator sim(1);
  ScriptedTransport inner;
  ImpairedTransport impaired(sim, inner, ImpairmentConfig{});
  int got = 0;
  impaired.set_receive_handler([&](const radio::Frame&) { ++got; });
  inner.inject(2, {1, 2, 3});
  // No timer hop for the unimpaired path: the handler already ran.
  EXPECT_EQ(got, 1);
  EXPECT_EQ(sim.events_executed(), 0u);
  EXPECT_EQ(impaired.stats().forwarded, 1u);
  EXPECT_EQ(impaired.stats().impaired(), 0u);
}

TEST(ImpairmentTest, CertainDropDeliversNothing) {
  des::Simulator sim(1);
  ScriptedTransport inner;
  ImpairmentConfig config;
  config.link.drop = 1.0;
  ImpairedTransport impaired(sim, inner, config);
  int got = 0;
  impaired.set_receive_handler([&](const radio::Frame&) { ++got; });
  for (int i = 0; i < 10; ++i) inner.inject(1, {42});
  sim.run_until(des::seconds(1));
  EXPECT_EQ(got, 0);
  EXPECT_EQ(impaired.stats().dropped, 10u);
  EXPECT_EQ(impaired.stats().forwarded, 0u);
}

TEST(ImpairmentTest, CertainDuplicateDeliversTwice) {
  des::Simulator sim(1);
  ScriptedTransport inner;
  ImpairmentConfig config;
  config.link.duplicate = 1.0;
  ImpairedTransport impaired(sim, inner, config);
  int got = 0;
  impaired.set_receive_handler([&](const radio::Frame&) { ++got; });
  inner.inject(1, {42});
  sim.run_until(des::seconds(1));
  EXPECT_EQ(got, 2);
  EXPECT_EQ(impaired.stats().duplicated, 1u);
}

TEST(ImpairmentTest, PerPeerOverrideSingsOutOneSender) {
  des::Simulator sim(1);
  ScriptedTransport inner;
  ImpairmentConfig config;
  config.per_peer[7].drop = 1.0;  // only frames claiming sender 7 vanish
  ImpairedTransport impaired(sim, inner, config);
  std::vector<NodeId> got;
  impaired.set_receive_handler(
      [&](const radio::Frame& f) { got.push_back(f.sender); });
  inner.inject(7, {1});
  inner.inject(3, {1});
  sim.run_until(des::seconds(1));
  EXPECT_EQ(got, (std::vector<NodeId>{3}));
  EXPECT_EQ(impaired.stats().dropped, 1u);
}

TEST(ImpairmentTest, CorruptedPayloadRejectedByProtocolParse) {
  // End-to-end over the DES: with every frame's payload corrupted, no
  // protocol message survives the strict parse, so nothing is delivered
  // — but nothing crashes either.
  sim::ScenarioConfig config;
  config.seed = 11;
  config.n = 8;
  config.area = {100, 100};
  config.num_broadcasts = 3;
  config.impairment.link.corrupt = 1.0;
  sim::Network network(config);
  sim::RunResult result = sim::run_workload(network);
  EXPECT_EQ(result.metrics.delivery_ratio(), 0.0);
  EXPECT_GT(network.impairment_stats().corrupted, 0u);
}

/// One impaired workload run; returns (delivery_ratio, events, stats).
struct ImpairedRun {
  double ratio = 0;
  std::uint64_t events = 0;
  ImpairmentStats stats;
};

ImpairedRun run_impaired(std::uint64_t seed) {
  sim::ScenarioConfig config;
  config.seed = seed;
  config.n = 20;
  config.area = {200, 200};
  config.num_broadcasts = 5;
  config.impairment.link.drop = 0.2;
  config.impairment.link.duplicate = 0.05;
  config.impairment.link.reorder = 0.1;
  config.impairment.link.delay_max = des::millis(5);
  sim::Network network(config);
  ImpairedRun run;
  run.ratio = sim::run_workload(network).metrics.delivery_ratio();
  run.events = network.simulator().events_executed();
  run.stats = network.impairment_stats();
  return run;
}

TEST(ImpairmentTest, ImpairedDesRunIsSeedDeterministic) {
  ImpairedRun a = run_impaired(5);
  ImpairedRun b = run_impaired(5);
  EXPECT_EQ(a.events, b.events);
  EXPECT_EQ(a.ratio, b.ratio);
  EXPECT_EQ(a.stats.dropped, b.stats.dropped);
  EXPECT_EQ(a.stats.duplicated, b.stats.duplicated);
  EXPECT_EQ(a.stats.reordered, b.stats.reordered);
  EXPECT_EQ(a.stats.delayed, b.stats.delayed);
  // The adversary actually did something...
  EXPECT_GT(a.stats.dropped, 0u);
  EXPECT_GT(a.stats.duplicated, 0u);
  // ...and the protocol's recovery machinery still delivered everything.
  EXPECT_EQ(a.ratio, 1.0);

  ImpairedRun c = run_impaired(6);  // different seed, different coin flips
  EXPECT_NE(a.stats.dropped, c.stats.dropped);
}

// --- ImpairmentMatrix (asymmetric per-link rules) ---------------------------

TEST(ImpairmentMatrixTest, ParsesRulesWildcardsAndComments) {
  ImpairmentMatrix m = parse_impairment_matrix(
      "1<-0 drop=1\n"
      "# fleet-wide duplication from node 2\n"
      "*<-2 dup=0.5   # trailing comment\n"
      "3<-* delay-ms=5 delay-min-ms=2 hold-ms=10 reorder=0.1 corrupt=0.2");
  ASSERT_EQ(m.rules.size(), 3u);
  EXPECT_TRUE(m.any());

  EXPECT_EQ(m.rules[0].dst, 1u);
  EXPECT_EQ(m.rules[0].src, 0u);
  EXPECT_EQ(m.rules[0].link.drop, 1.0);

  EXPECT_EQ(m.rules[1].dst, kInvalidNode);
  EXPECT_EQ(m.rules[1].src, 2u);
  EXPECT_EQ(m.rules[1].link.duplicate, 0.5);

  EXPECT_EQ(m.rules[2].dst, 3u);
  EXPECT_EQ(m.rules[2].src, kInvalidNode);
  EXPECT_EQ(m.rules[2].link.delay_max, des::millis(5));
  EXPECT_EQ(m.rules[2].link.delay_min, des::millis(2));
  EXPECT_EQ(m.rules[2].link.reorder_hold, des::millis(10));
  EXPECT_EQ(m.rules[2].link.reorder, 0.1);
  EXPECT_EQ(m.rules[2].link.corrupt, 0.2);

  // `;` separates rules inline (the CLI one-liner form).
  ImpairmentMatrix inline_form = parse_impairment_matrix("1<-0 drop=1;0<-1 dup=1");
  EXPECT_EQ(inline_form.rules.size(), 2u);
  // All-default rules parse but are inert.
  EXPECT_FALSE(parse_impairment_matrix("1<-0").any());
  EXPECT_FALSE(parse_impairment_matrix("# nothing\n\n").any());
}

TEST(ImpairmentMatrixTest, RejectsMalformedSpecs) {
  EXPECT_THROW((void)parse_impairment_matrix("1->0 drop=1"),
               std::invalid_argument);
  EXPECT_THROW((void)parse_impairment_matrix("x<-0 drop=1"),
               std::invalid_argument);
  EXPECT_THROW((void)parse_impairment_matrix("1<-0 drop"),
               std::invalid_argument);
  EXPECT_THROW((void)parse_impairment_matrix("1<-0 warp=1"),
               std::invalid_argument);
  EXPECT_THROW((void)parse_impairment_matrix("1<-0 drop=1.5"),
               std::invalid_argument);
  EXPECT_THROW((void)parse_impairment_matrix("1<-0 delay-ms=-3"),
               std::invalid_argument);
}

TEST(ImpairmentMatrixTest, ExactReceiverRuleOverridesWildcard) {
  ImpairmentMatrix m = parse_impairment_matrix(
      "*<-7 drop=0.5\n"
      "1<-7 drop=1");
  ImpairmentConfig node1;
  m.apply_to(1, node1);
  EXPECT_EQ(node1.for_peer(7).drop, 1.0) << "exact rule must win";
  ImpairmentConfig node2;
  m.apply_to(2, node2);
  EXPECT_EQ(node2.for_peer(7).drop, 0.5) << "wildcard applies elsewhere";
  EXPECT_EQ(node2.for_peer(3).drop, 0.0);
  // A `DST<-*` rule replaces the receiver's base link.
  ImpairmentMatrix base = parse_impairment_matrix("4<-* dup=1");
  ImpairmentConfig node4;
  base.apply_to(4, node4);
  EXPECT_EQ(node4.link.duplicate, 1.0);
}

TEST(ImpairmentMatrixTest, AsymmetricDropSilencesOneDirectionOnly) {
  // "1<-0 drop=1": node 1 is deaf to node 0, node 0 still hears node 1 —
  // the direction-selective regime a symmetric ImpairmentConfig cannot
  // express.
  ImpairmentMatrix m = parse_impairment_matrix("1<-0 drop=1");
  des::Simulator sim(1);

  ScriptedTransport inner0;
  ImpairmentConfig config0;
  m.apply_to(0, config0);
  ImpairedTransport node0(sim, inner0, config0);
  std::vector<NodeId> heard0;
  node0.set_receive_handler(
      [&](const radio::Frame& f) { heard0.push_back(f.sender); });

  ScriptedTransport inner1;
  ImpairmentConfig config1;
  m.apply_to(1, config1);
  ImpairedTransport node1(sim, inner1, config1);
  std::vector<NodeId> heard1;
  node1.set_receive_handler(
      [&](const radio::Frame& f) { heard1.push_back(f.sender); });

  inner1.inject(0, {1});  // 0 -> 1: silenced
  inner1.inject(2, {2});  // 2 -> 1: untouched
  inner0.inject(1, {3});  // 1 -> 0: untouched
  sim.run_until(des::seconds(1));

  EXPECT_EQ(heard1, (std::vector<NodeId>{2}));
  EXPECT_EQ(heard0, (std::vector<NodeId>{1}));
  EXPECT_EQ(node1.stats().dropped, 1u);
  EXPECT_EQ(node0.stats().dropped, 0u);
}

TEST(ImpairmentMatrixTest, MatrixScenarioDeliversAroundTheDeafLink) {
  // End-to-end DES: node 1 never hears node 0 directly, yet the overlay
  // relays everything around the dead direction — and the run stays
  // seed-deterministic.
  sim::ScenarioConfig config;
  config.seed = 11;
  config.n = 8;
  config.area = {100, 100};
  config.num_broadcasts = 3;
  config.impairment_matrix = parse_impairment_matrix("1<-0 drop=1");

  auto run_once = [&] {
    sim::Network network(config);
    ImpairedRun run;
    run.ratio = sim::run_workload(network).metrics.delivery_ratio();
    run.events = network.simulator().events_executed();
    run.stats = network.impairment_stats();
    return run;
  };
  ImpairedRun a = run_once();
  EXPECT_EQ(a.ratio, 1.0);
  EXPECT_GT(a.stats.dropped, 0u) << "the deaf link never saw a frame";
  EXPECT_EQ(a.stats.duplicated, 0u);

  ImpairedRun b = run_once();
  EXPECT_EQ(a.events, b.events);
  EXPECT_EQ(a.stats.dropped, b.stats.dropped);
}

// --- wire-level corruption (UDP mangler) -----------------------------------

TEST(UdpTransportTest, WireManglerCorruptionRejectedByDecode) {
  const std::uint16_t base = static_cast<std::uint16_t>(test_base_port() + 4);
  IoLoop loop(1);
  std::vector<UdpPeer> peers{{0, "127.0.0.1", base},
                             {1, "127.0.0.1", static_cast<std::uint16_t>(
                                                  base + 1)}};
  UdpTransport sender(loop, 0, "127.0.0.1", base, peers);
  UdpTransport receiver(loop, 1, "127.0.0.1",
                        static_cast<std::uint16_t>(base + 1), peers);

  // Certain corruption of the magic byte: every datagram must fail the
  // receiver's strict 'BZC1' decode and be counted, never delivered.
  sender.set_wire_mangler(
      [](std::vector<std::uint8_t>& bytes) { bytes[0] ^= 0xFF; });
  int delivered = 0;
  receiver.set_receive_handler([&](const radio::Frame&) { ++delivered; });

  constexpr int kSends = 5;
  loop.schedule_after(0, [&] {
    for (int i = 0; i < kSends; ++i) sender.send(util::Buffer({9, 9, 9}));
  });
  loop.schedule_after(des::millis(300), [&] { loop.stop(); });
  loop.run_for(des::seconds(5));

  EXPECT_EQ(delivered, 0);
  EXPECT_EQ(sender.datagrams_sent(), static_cast<std::uint64_t>(kSends));
  EXPECT_EQ(receiver.datagrams_rejected(),
            static_cast<std::uint64_t>(kSends));
}

TEST(UdpTransportTest, RetryCountersStartClean) {
  const std::uint16_t base = static_cast<std::uint16_t>(test_base_port() + 6);
  IoLoop loop(1);
  std::vector<UdpPeer> peers{{0, "127.0.0.1", base}};
  UdpTransport transport(loop, 0, "127.0.0.1", base, peers);
  // Loopback sends don't hit EAGAIN at this rate: the transient-error
  // path stays untouched and every counter reads zero.
  transport.send(util::Buffer({1}));
  loop.run_for(des::millis(50));
  EXPECT_EQ(transport.send_errors(), 0u);
  EXPECT_EQ(transport.send_retries(), 0u);
  EXPECT_EQ(transport.send_drops(), 0u);
  EXPECT_EQ(transport.pending_retries(), 0u);
}

// --- PeerHealth ------------------------------------------------------------

TEST(PeerHealthTest, SilenceSuspectsAndFrameRevives) {
  des::Simulator sim(1);
  PeerHealthConfig config;
  config.silence_timeout = des::seconds(5);
  config.check_period = des::seconds(1);
  PeerHealth health(sim, {1, 2}, config);
  std::vector<NodeId> suspected, revived;
  health.set_on_suspect([&](NodeId id) { suspected.push_back(id); });
  health.set_on_alive([&](NodeId id) { revived.push_back(id); });
  health.start();

  // Peer 1 beacons every second; peer 2 goes silent after t=2s.
  for (int s = 1; s <= 10; ++s) {
    sim.schedule_at(des::seconds(s), [&] { health.on_frame_from(1); });
  }
  sim.schedule_at(des::seconds(2), [&] { health.on_frame_from(2); });
  sim.run_until(des::seconds(10));

  EXPECT_EQ(suspected, (std::vector<NodeId>{2}));
  EXPECT_TRUE(health.suspected(2));
  EXPECT_FALSE(health.suspected(1));
  EXPECT_EQ(health.suspect_transitions(), 1u);

  // The peer comes back: one frame flips it alive again, edge-triggered.
  sim.schedule_at(des::seconds(11), [&] { health.on_frame_from(2); });
  sim.run_until(des::seconds(12));
  EXPECT_EQ(revived, (std::vector<NodeId>{2}));
  EXPECT_FALSE(health.suspected(2));
  EXPECT_EQ(health.alive_transitions(), 1u);
  health.stop();
}

TEST(PeerHealthTest, ConsecutiveSendErrorsSuspect) {
  des::Simulator sim(1);
  PeerHealthConfig config;
  config.send_error_threshold = 3;
  config.silence_timeout = des::seconds(1000);  // isolate the error path
  PeerHealth health(sim, {4}, config);
  std::vector<NodeId> suspected;
  health.set_on_suspect([&](NodeId id) { suspected.push_back(id); });
  health.start();

  // A success in between resets the streak...
  health.on_send_error(4);
  health.on_send_error(4);
  health.on_send_ok(4);
  health.on_send_error(4);
  health.on_send_error(4);
  EXPECT_TRUE(suspected.empty());
  // ...so only the third *consecutive* error trips the threshold.
  health.on_send_error(4);
  EXPECT_EQ(suspected, (std::vector<NodeId>{4}));
  EXPECT_EQ(health.total_send_errors(), 5u);
  const PeerHealth::PeerStats* stats = health.peer(4);
  ASSERT_NE(stats, nullptr);
  EXPECT_EQ(stats->consecutive_send_errors, 3);
  health.stop();
}

TEST(PeerHealthTest, UnknownPeerIsIgnored) {
  des::Simulator sim(1);
  PeerHealth health(sim, {1}, PeerHealthConfig{});
  health.start();
  health.on_frame_from(99);  // not tracked: must be a safe no-op
  health.on_send_error(99);
  EXPECT_EQ(health.peer(99), nullptr);
  EXPECT_FALSE(health.suspected(99));
  health.stop();
}

}  // namespace
}  // namespace byzcast::net
