// White-box protocol tests for ByzcastNode: real nodes on a quiet medium
// plus "raw" radios the test drives directly to inject crafted packets
// and sniff what the node puts on the air.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>

#include "core/byzcast_node.h"
#include "mobility/static_mobility.h"
#include "radio/medium.h"
#include "radio/radio.h"

namespace byzcast::core {
namespace {

struct Sniffed {
  NodeId sender;
  Packet packet;
};

class NodeTest : public ::testing::Test {
 protected:
  NodeTest() : pki_(des::Rng(99)) {
    radio::MediumConfig config;
    config.tx_jitter_max = 0;  // deterministic airtime ordering
    medium_ = std::make_unique<radio::Medium>(
        sim_, std::make_unique<radio::UnitDisk>(), config, &metrics_);
  }

  static ProtocolConfig fast_config() {
    ProtocolConfig config;
    config.gossip_period = des::millis(100);
    config.hello_period = des::millis(200);
    config.neighbor_timeout = des::millis(700);
    return config;
  }

  template <typename Node = ByzcastNode>
  Node& add_node(geo::Vec2 position, ProtocolConfig config = fast_config()) {
    auto id = static_cast<NodeId>(radios_.size());
    mobility_.push_back(std::make_unique<mobility::StaticMobility>(position));
    radios_.push_back(
        std::make_unique<radio::Radio>(*medium_, id, *mobility_.back(), 100));
    auto node = std::make_unique<Node>(sim_, *radios_.back(), pki_,
                                       pki_.register_node(id), config,
                                       &metrics_);
    Node& added = *node;
    node->start();
    nodes_.push_back(std::move(node));
    raw_signers_.push_back({});  // placeholder to keep indices aligned
    return added;
  }

  /// A radio the test controls directly: captures everything it hears and
  /// can transmit arbitrary bytes. Registered in the PKI so it can also
  /// craft validly-signed packets.
  NodeId add_raw(geo::Vec2 position) {
    auto id = static_cast<NodeId>(radios_.size());
    mobility_.push_back(std::make_unique<mobility::StaticMobility>(position));
    radios_.push_back(
        std::make_unique<radio::Radio>(*medium_, id, *mobility_.back(), 100));
    nodes_.push_back(nullptr);
    raw_signers_.push_back(pki_.register_node(id));
    radios_.back()->set_receive_handler([this, id](const radio::Frame& f) {
      auto packet = parse_packet(f.payload);
      if (packet) sniffed_[id].push_back({f.sender, std::move(*packet)});
    });
    return id;
  }

  void raw_send(NodeId raw, const Packet& packet) {
    radios_[raw]->send(serialize(packet));
  }

  DataMsg make_signed_data(NodeId origin, std::uint32_t seq,
                           std::vector<std::uint8_t> payload,
                           std::uint8_t ttl = 1) {
    DataMsg msg;
    msg.id = {origin, seq};
    msg.ttl = ttl;
    msg.payload = std::move(payload);
    msg.sig = raw_signers_[origin].sign(data_sign_bytes(msg.id, msg.payload));
    msg.gossip_sig = raw_signers_[origin].sign(gossip_sign_bytes(msg.id));
    return msg;
  }

  GossipEntry make_signed_entry(NodeId origin, std::uint32_t seq) {
    return {{origin, seq},
            raw_signers_[origin].sign(gossip_sign_bytes({origin, seq}))};
  }

  /// Count of sniffed packets at `raw` matching a predicate.
  template <typename T>
  std::size_t count_sniffed(NodeId raw) const {
    std::size_t n = 0;
    auto it = sniffed_.find(raw);
    if (it == sniffed_.end()) return 0;
    for (const Sniffed& s : it->second) {
      if (std::holds_alternative<T>(s.packet)) ++n;
    }
    return n;
  }

  template <typename T>
  const T* last_sniffed(NodeId raw) const {
    auto it = sniffed_.find(raw);
    if (it == sniffed_.end()) return nullptr;
    for (auto rit = it->second.rbegin(); rit != it->second.rend(); ++rit) {
      if (const T* p = std::get_if<T>(&rit->packet)) return p;
    }
    return nullptr;
  }

  des::Simulator sim_{7};
  stats::Metrics metrics_;
  crypto::Pki pki_;
  std::unique_ptr<radio::Medium> medium_;
  std::vector<std::unique_ptr<mobility::MobilityModel>> mobility_;
  std::vector<std::unique_ptr<radio::Radio>> radios_;
  std::vector<std::unique_ptr<ByzcastNode>> nodes_;
  std::vector<crypto::Signer> raw_signers_;
  std::map<NodeId, std::vector<Sniffed>> sniffed_;
};

// ---------------------------------------------------------------------------

TEST_F(NodeTest, BroadcastAcceptedByNeighborExactlyOnce) {
  ByzcastNode& alice = add_node({0, 0});
  ByzcastNode& bob = add_node({50, 0});

  int accepts = 0;
  MessageId got_id;
  std::string got_payload;
  bob.set_accept_handler([&](const MessageId& id,
                             std::span<const std::uint8_t> payload) {
    ++accepts;
    got_id = id;
    got_payload = util::to_string(payload);
  });

  sim_.run_until(des::seconds(1));  // beacons settle
  alice.broadcast(util::to_bytes("hello"));
  sim_.run_until(des::seconds(3));

  EXPECT_EQ(accepts, 1);
  EXPECT_EQ(got_id, (MessageId{alice.id(), 0}));
  EXPECT_EQ(got_payload, "hello");
  EXPECT_TRUE(bob.store().has({alice.id(), 0}));
}

TEST_F(NodeTest, OriginatorNeverAcceptsOwnMessage) {
  ByzcastNode& alice = add_node({0, 0});
  add_node({50, 0});
  int self_accepts = 0;
  alice.set_accept_handler([&](auto&&...) { ++self_accepts; });
  sim_.run_until(des::seconds(1));
  alice.broadcast(util::to_bytes("mine"));
  sim_.run_until(des::seconds(3));
  EXPECT_EQ(self_accepts, 0);
  EXPECT_EQ(alice.next_seq(), 1u);
}

TEST_F(NodeTest, MultiHopDeliveryThroughOverlay) {
  // Chain 0-1-2 with 100 m range at 80 m spacing: only node 1 connects
  // the endpoints, so delivery to node 2 proves overlay forwarding.
  ByzcastNode& a = add_node({0, 0});
  ByzcastNode& mid = add_node({80, 0});
  ByzcastNode& c = add_node({160, 0});

  int accepts = 0;
  c.set_accept_handler([&](auto&&...) { ++accepts; });
  sim_.run_until(des::seconds(2));  // overlay stabilizes
  EXPECT_TRUE(mid.in_overlay());

  a.broadcast(util::to_bytes("far"));
  sim_.run_until(des::seconds(5));
  EXPECT_EQ(accepts, 1);
}

TEST_F(NodeTest, ForgedSignatureRejectedAndSenderSuspected) {
  ByzcastNode& bob = add_node({0, 0});
  NodeId raw = add_raw({50, 0});
  int accepts = 0;
  bob.set_accept_handler([&](auto&&...) { ++accepts; });

  DataMsg forged = make_signed_data(raw, 0, {1, 2, 3});
  forged.sig.tag ^= 0xFFFF;  // break the signature
  raw_send(raw, forged);
  sim_.run_until(des::seconds(1));

  EXPECT_EQ(accepts, 0);
  EXPECT_FALSE(bob.store().has({raw, 0}));
  EXPECT_EQ(bob.trust().suspicion_events(fd::SuspicionReason::kBadSignature),
            1u);
  EXPECT_TRUE(bob.trust().suspects(raw));
}

TEST_F(NodeTest, TamperedPayloadRejected) {
  ByzcastNode& bob = add_node({0, 0});
  NodeId raw = add_raw({50, 0});
  int accepts = 0;
  bob.set_accept_handler([&](auto&&...) { ++accepts; });

  DataMsg msg = make_signed_data(raw, 0, {1, 2, 3});
  std::vector<std::uint8_t> tampered(msg.payload.begin(), msg.payload.end());
  tampered[0] ^= 0xFF;  // tamper after signing
  msg.payload = std::move(tampered);
  msg.wire = {};  // stale: payload changed after serialization
  raw_send(raw, msg);
  sim_.run_until(des::seconds(1));
  EXPECT_EQ(accepts, 0);
  EXPECT_TRUE(bob.trust().suspects(raw));
}

TEST_F(NodeTest, ValidDataAcceptedFromRawSender) {
  ByzcastNode& bob = add_node({0, 0});
  NodeId raw = add_raw({50, 0});
  int accepts = 0;
  bob.set_accept_handler([&](auto&&...) { ++accepts; });
  raw_send(raw, make_signed_data(raw, 0, {9}));
  sim_.run_until(des::seconds(1));
  EXPECT_EQ(accepts, 1);
  EXPECT_FALSE(bob.trust().suspects(raw));
}

TEST_F(NodeTest, DuplicateDataIgnored) {
  ByzcastNode& bob = add_node({0, 0});
  NodeId raw = add_raw({50, 0});
  int accepts = 0;
  bob.set_accept_handler([&](auto&&...) { ++accepts; });
  DataMsg msg = make_signed_data(raw, 0, {9});
  raw_send(raw, msg);
  sim_.run_until(des::seconds(1));
  raw_send(raw, msg);
  raw_send(raw, msg);
  sim_.run_until(des::seconds(2));
  EXPECT_EQ(accepts, 1);
}

TEST_F(NodeTest, ReplayAfterPurgeStillNotReaccepted) {
  ProtocolConfig config = fast_config();
  config.purge_timeout = des::millis(300);
  ByzcastNode& bob = add_node({0, 0}, config);
  NodeId raw = add_raw({50, 0});
  int accepts = 0;
  bob.set_accept_handler([&](auto&&...) { ++accepts; });
  DataMsg msg = make_signed_data(raw, 0, {9});
  raw_send(raw, msg);
  sim_.run_until(des::seconds(2));
  EXPECT_FALSE(bob.store().has({raw, 0}));  // purged from the buffer
  raw_send(raw, msg);                        // replay attack
  sim_.run_until(des::seconds(3));
  EXPECT_EQ(accepts, 1);  // at-most-once survives purging
}

TEST_F(NodeTest, HelloImpersonationSuspected) {
  ByzcastNode& bob = add_node({0, 0});
  ByzcastNode& alice = add_node({50, 0});
  NodeId raw = add_raw({30, 0});

  // Raw claims to be alice; it cannot produce alice's signature.
  HelloMsg hello;
  hello.from = alice.id();
  hello.neighbors = {bob.id()};
  hello.sig = raw_signers_[raw].sign(hello_sign_bytes(hello));
  raw_send(raw, Packet{hello});
  sim_.run_until(des::seconds(1));
  EXPECT_TRUE(bob.trust().suspects(raw));
}

TEST_F(NodeTest, GossipForMissingMessageTriggersTargetedRequest) {
  add_node({0, 0});
  NodeId gossiper = add_raw({50, 0});
  NodeId origin = add_raw({500, 500});  // far away; key registration only

  GossipMsg gossip;
  gossip.entries.push_back(make_signed_entry(origin, 5));
  raw_send(gossiper, gossip);
  sim_.run_until(des::seconds(1));

  ASSERT_EQ(count_sniffed<RequestMsg>(gossiper), 1u);
  const RequestMsg* req = last_sniffed<RequestMsg>(gossiper);
  EXPECT_EQ(req->entry.id, (MessageId{origin, 5}));
  EXPECT_EQ(req->target, gossiper);
}

TEST_F(NodeTest, GossipFromOriginatorAlsoTriggersRequest) {
  // Deliberate deviation from the pseudo-code's line-29 guard (see
  // byzcast_node.cpp): with one-shot broadcasts, a gossip heard from the
  // originator itself must still trigger a REQUEST, or a collided initial
  // transmission could never be recovered.
  add_node({0, 0});
  NodeId raw = add_raw({50, 0});
  GossipMsg gossip;
  gossip.entries.push_back(make_signed_entry(raw, 5));
  raw_send(raw, gossip);
  sim_.run_until(des::seconds(1));
  ASSERT_GE(count_sniffed<RequestMsg>(raw), 1u);
  EXPECT_EQ(last_sniffed<RequestMsg>(raw)->target, raw);
}

TEST_F(NodeTest, GossipRecoveryEndToEnd) {
  // Carol is out of the originator's range and only Bob receives the
  // DATA; Carol must learn of the message from Bob's gossip, request it,
  // and get Bob's retransmission — the full recovery loop.
  ByzcastNode& bob = add_node({0, 0});
  ByzcastNode& carol = add_node({90, 0});
  NodeId origin = add_raw({0, -50});   // 50 m from bob, ~103 m from carol
  NodeId sniffer = add_raw({45, 0});   // hears both bob and carol

  int carol_accepts = 0;
  carol.set_accept_handler([&](auto&&...) { ++carol_accepts; });
  sim_.run_until(des::millis(500));

  raw_send(origin, make_signed_data(origin, 0, {1}));
  sim_.run_until(des::seconds(6));  // gossip -> request -> retransmission
  EXPECT_TRUE(bob.store().has({origin, 0}));
  EXPECT_EQ(carol_accepts, 1);
  EXPECT_TRUE(carol.store().has({origin, 0}));
  // Carol is out of the originator's range, so the message can only have
  // crossed via the recovery loop: a REQUEST must have been on the air.
  EXPECT_GE(count_sniffed<RequestMsg>(sniffer), 1u);
}

TEST_F(NodeTest, TargetedNodeAnswersRequestWithData) {
  ByzcastNode& bob = add_node({0, 0});
  NodeId raw = add_raw({50, 0});

  // Give bob the message, then request it back.
  raw_send(raw, make_signed_data(raw, 3, {42}));
  sim_.run_until(des::seconds(1));
  ASSERT_TRUE(bob.store().has({raw, 3}));

  std::size_t data_before = count_sniffed<DataMsg>(raw);
  raw_send(raw, Packet{RequestMsg{make_signed_entry(raw, 3), bob.id()}});
  sim_.run_until(des::seconds(2));
  EXPECT_GT(count_sniffed<DataMsg>(raw), data_before);
  const DataMsg* reply = last_sniffed<DataMsg>(raw);
  ASSERT_NE(reply, nullptr);
  EXPECT_EQ(reply->id, (MessageId{raw, 3}));
}

TEST_F(NodeTest, PassiveUntargetedNodeStaysSilentOnRequest) {
  // A lone pair: neither node has two non-adjacent neighbours, so bob is
  // passive; a REQUEST targeting someone else must be ignored (line 43).
  ByzcastNode& bob = add_node({0, 0});
  NodeId raw = add_raw({50, 0});
  raw_send(raw, make_signed_data(raw, 3, {42}));
  sim_.run_until(des::seconds(1));
  ASSERT_FALSE(bob.in_overlay());

  std::size_t data_before = count_sniffed<DataMsg>(raw);
  raw_send(raw,
           Packet{RequestMsg{make_signed_entry(raw, 3), /*target=*/999}});
  sim_.run_until(des::seconds(2));
  EXPECT_EQ(count_sniffed<DataMsg>(raw), data_before);
}

TEST_F(NodeTest, OverlayNodeIssuesFindForUnknownRequestedMessage) {
  // Make the middle node an overlay member via a 3-node chain.
  add_node({0, 0});
  ByzcastNode& mid = add_node({80, 0});
  add_node({160, 0});
  NodeId raw = add_raw({80, 50});       // neighbour of mid only (dist 50)
  NodeId origin = add_raw({500, 500});  // registration only
  sim_.run_until(des::seconds(2));
  ASSERT_TRUE(mid.in_overlay());

  // Request a message nobody has (and whose originator is NOT the
  // requester — that case is line 55's indictment instead).
  raw_send(raw, Packet{RequestMsg{make_signed_entry(origin, 77), 0}});
  sim_.run_until(sim_.now() + des::seconds(2));
  ASSERT_GE(count_sniffed<FindMissingMsg>(raw), 1u);
  const FindMissingMsg* find = last_sniffed<FindMissingMsg>(raw);
  EXPECT_EQ(find->entry.id, (MessageId{origin, 77}));
  EXPECT_EQ(find->issuer, mid.id());
  EXPECT_EQ(find->ttl, 2);
}

TEST_F(NodeTest, FindRelayedExactlyOnceWithDecrementedTtl) {
  ByzcastNode& bob = add_node({0, 0});
  (void)bob;
  NodeId raw = add_raw({50, 0});

  FindMissingMsg find{make_signed_entry(raw, 9), /*gossiper=*/5,
                      /*issuer=*/raw, /*ttl=*/2};
  raw_send(raw, Packet{find});
  // Duplicate a little later (not back-to-back, or the half-duplex raw
  // radio would still be transmitting when the relay comes back).
  sim_.schedule_after(des::millis(10),
                      [&, find] { raw_send(raw, Packet{find}); });
  sim_.run_until(des::seconds(1));
  EXPECT_EQ(count_sniffed<FindMissingMsg>(raw), 1u);
  const FindMissingMsg* relayed = last_sniffed<FindMissingMsg>(raw);
  EXPECT_EQ(relayed->ttl, 1);
}

TEST_F(NodeTest, FindWithTtl1NotRelayed) {
  add_node({0, 0});
  NodeId raw = add_raw({50, 0});
  FindMissingMsg find{make_signed_entry(raw, 9), 5, raw, /*ttl=*/1};
  raw_send(raw, Packet{find});
  sim_.run_until(des::seconds(1));
  EXPECT_EQ(count_sniffed<FindMissingMsg>(raw), 0u);
}

TEST_F(NodeTest, RepeatedRequestsIndictRequester) {
  ProtocolConfig config = fast_config();
  config.verbose.suspicion_threshold = 3;
  // Chain so the node is an overlay member (indictment is line 46's
  // overlay-side rule).
  add_node({0, 0}, config);
  ByzcastNode& mid = add_node({80, 0}, config);
  add_node({160, 0}, config);
  NodeId raw = add_raw({80, 50});
  sim_.run_until(des::seconds(2));
  ASSERT_TRUE(mid.in_overlay());

  // Seed the message, then nag for it far past the tolerated two asks.
  raw_send(raw, make_signed_data(raw, 1, {1}));
  sim_.run_until(des::seconds(3));
  for (int i = 0; i < 8; ++i) {
    raw_send(raw, Packet{RequestMsg{make_signed_entry(raw, 1), mid.id()}});
    sim_.run_until(sim_.now() + des::millis(300));
  }
  EXPECT_TRUE(mid.verbose().suspected(raw));
  EXPECT_TRUE(mid.trust().suspects(raw));
}

TEST_F(NodeTest, GossipBundlesAggregateMultipleEntries) {
  ProtocolConfig config = fast_config();
  ByzcastNode& alice = add_node({0, 0}, config);
  NodeId raw = add_raw({50, 0});
  sim_.run_until(des::millis(500));
  // Several broadcasts in one gossip period end up in shared bundles.
  alice.broadcast({1});
  alice.broadcast({2});
  alice.broadcast({3});
  sim_.run_until(des::seconds(2));
  ASSERT_GE(count_sniffed<GossipMsg>(raw), 1u);
  const GossipMsg* bundle = nullptr;
  for (const Sniffed& s : sniffed_[raw]) {
    if (const auto* g = std::get_if<GossipMsg>(&s.packet)) {
      if (g->entries.size() >= 3) bundle = g;
    }
  }
  EXPECT_NE(bundle, nullptr) << "expected an aggregated 3-entry bundle";
}

TEST_F(NodeTest, RecoveryDisabledSendsNoRequests) {
  ProtocolConfig config = fast_config();
  config.recovery_enabled = false;
  add_node({0, 0}, config);
  NodeId raw = add_raw({50, 0});
  GossipMsg gossip;
  gossip.entries.push_back(make_signed_entry(raw, 5));
  raw_send(raw, gossip);
  sim_.run_until(des::seconds(2));
  EXPECT_EQ(count_sniffed<RequestMsg>(raw), 0u);
}

/// A node whose accepted record a test can fill directly.
class FillableNode : public ByzcastNode {
 public:
  using ByzcastNode::ByzcastNode;
  MessageStore& writable_store() { return store_; }
};

TEST_F(NodeTest, HelloPastTheStabilityCapListsTheLowestOrigins) {
  // One accepted origin more than a HELLO may advertise: the beacon must
  // still parse where it is heard, listing the lowest origins.
  auto& alice = add_node<FillableNode>({0, 0});
  NodeId raw = add_raw({50, 0});
  for (NodeId origin = 0; origin <= kMaxStabilityEntries; ++origin) {
    alice.writable_store().mark_accepted({1000 + origin, 0});
  }
  sim_.run_until(des::seconds(1));
  const HelloMsg* hello = last_sniffed<HelloMsg>(raw);
  ASSERT_NE(hello, nullptr) << "no HELLO from alice parsed";
  EXPECT_EQ(hello->from, alice.id());
  ASSERT_EQ(hello->stability.size(), kMaxStabilityEntries);
  EXPECT_EQ(hello->stability.front().first, 1000u);
  EXPECT_EQ(hello->stability.back().first, 1000 + kMaxStabilityEntries - 1);
  EXPECT_EQ(hello->stability.back().second, 1u);
}

TEST_F(NodeTest, MalformedBytesSuspected) {
  ByzcastNode& bob = add_node({0, 0});
  NodeId raw = add_raw({50, 0});
  radios_[raw]->send({0xde, 0xad});  // unparseable
  sim_.run_until(des::seconds(1));
  EXPECT_EQ(
      bob.trust().suspicion_events(fd::SuspicionReason::kProtocolViolation),
      1u);
}

// ---------------------------------------------------------------------------
// Recovery windows
// ---------------------------------------------------------------------------

/// A ByzcastNode that checks its own recovery windows after every hello
/// tick: each entry must still be able to act, i.e. be younger than
/// kRequestRetry or — in last_request_ only — belong to a pending id.
class WindowCheckingNode : public ByzcastNode {
 public:
  using ByzcastNode::ByzcastNode;

  /// Entries seen that could no longer act.
  std::size_t stale = 0;
  /// Largest window sizes seen, which show the check had entries to judge.
  std::size_t peak_request = 0;
  std::size_t peak_find = 0;
  std::size_t peak_forwarded = 0;

 protected:
  void on_hello_tick() override {
    ByzcastNode::on_hello_tick();
    const des::SimTime now = env_.now();
    const auto old = [&](des::SimTime at) {
      return now - at >= kRequestRetry;
    };
    for (const auto& [id, at] : last_request_) {
      if (old(at) && !pending_missing_.contains(id)) ++stale;
    }
    for (const auto& [id, at] : last_find_issued_) {
      if (old(at)) ++stale;
    }
    for (const auto& [key, at] : forwarded_finds_) {
      if (old(at)) ++stale;
    }
    peak_request = std::max(peak_request, last_request_.size());
    peak_find = std::max(peak_find, last_find_issued_.size());
    peak_forwarded = std::max(peak_forwarded, forwarded_finds_.size());
  }
};

TEST(RecoveryWindows, EntriesArePrunedOnceTheyCanNoLongerAct) {
  // A 4x4 grid under 20% per-frame loss, broadcasting for longer than
  // purge_timeout, so REQUESTs, FINDs and relayed FINDs keep coming and
  // purges run while the windows fill.
  des::Simulator sim(3);
  stats::Metrics metrics;
  crypto::Pki pki(des::Rng(11));
  radio::MediumConfig medium_config;
  medium_config.base_loss_prob = 0.2;
  radio::Medium medium(sim, std::make_unique<radio::UnitDisk>(),
                       medium_config, &metrics);
  ProtocolConfig config;
  std::vector<std::unique_ptr<mobility::MobilityModel>> mobility;
  std::vector<std::unique_ptr<radio::Radio>> radios;
  std::vector<std::unique_ptr<WindowCheckingNode>> nodes;
  for (NodeId id = 0; id < 16; ++id) {
    mobility.push_back(std::make_unique<mobility::StaticMobility>(
        geo::Vec2{70.0 * (id % 4), 70.0 * (id / 4)}));
    radios.push_back(
        std::make_unique<radio::Radio>(medium, id, *mobility.back(), 100));
    nodes.push_back(std::make_unique<WindowCheckingNode>(
        sim, *radios.back(), pki, pki.register_node(id), config, &metrics));
    nodes.back()->start();
  }
  const des::SimDuration run = config.purge_timeout + des::seconds(15);
  for (int i = 0; i < 280; ++i) {
    sim.schedule_at(des::seconds(4) + des::millis(250) * i, [&, i] {
      nodes[i % 2 == 0 ? 0 : 15]->broadcast(std::vector<std::uint8_t>(64));
    });
  }
  sim.run_until(run);

  std::size_t peak_request = 0, peak_find = 0, peak_forwarded = 0;
  for (const auto& node : nodes) {
    EXPECT_EQ(node->stale, 0u) << "node " << node->id();
    peak_request = std::max(peak_request, node->peak_request);
    peak_find = std::max(peak_find, node->peak_find);
    peak_forwarded = std::max(peak_forwarded, node->peak_forwarded);
  }
  EXPECT_GT(peak_request, 0u);
  EXPECT_GT(peak_find, 0u);
  EXPECT_GT(peak_forwarded, 0u);
}

}  // namespace
}  // namespace byzcast::core
