// Unit tests for the core protocol's passive pieces: MessageStore,
// GossipQueue, ProtocolConfig, Metrics. The live node is exercised in
// node_test.cpp and the integration suites.
#include <gtest/gtest.h>

#include <set>
#include <stdexcept>
#include <tuple>
#include <vector>

#include "core/config.h"
#include "core/gossip.h"
#include "core/message_store.h"
#include "des/rng.h"
#include "stats/metrics.h"

namespace byzcast::core {
namespace {

DataMsg make_msg(NodeId origin, std::uint32_t seq) {
  DataMsg m;
  m.id = {origin, seq};
  m.payload = {static_cast<std::uint8_t>(seq)};
  return m;
}

// ---------------------------------------------------------------------------
// MessageStore
// ---------------------------------------------------------------------------

TEST(MessageStore, InsertAndFind) {
  MessageStore store;
  const auto [stored, inserted] = store.insert(make_msg(1, 0), 100);
  EXPECT_TRUE(inserted);
  const auto [existing, duplicate] = store.insert(make_msg(1, 0), 200);
  EXPECT_FALSE(duplicate);
  EXPECT_EQ(existing, stored);  // the entry already stored, untouched
  EXPECT_EQ(stored, store.find({1, 0}));
  EXPECT_TRUE(store.has({1, 0}));
  EXPECT_FALSE(store.has({1, 1}));
  ASSERT_NE(store.find({1, 0}), nullptr);
  EXPECT_EQ(store.find({1, 0})->received_at, 100u);
  EXPECT_EQ(store.size(), 1u);
}

TEST(MessageStore, AcceptedExactlyOnce) {
  MessageStore store;
  EXPECT_TRUE(store.mark_accepted({1, 0}));
  EXPECT_FALSE(store.mark_accepted({1, 0}));
  EXPECT_TRUE(store.accepted({1, 0}));
  EXPECT_FALSE(store.accepted({1, 1}));
  EXPECT_EQ(store.accepted_count(), 1u);
}

TEST(MessageStore, PurgeDropsOldMessagesOnly) {
  MessageStore store;
  store.insert(make_msg(1, 0), des::seconds(1));
  store.insert(make_msg(1, 1), des::seconds(50));
  store.mark_accepted({1, 0});

  store.purge(des::seconds(60), des::seconds(30));
  EXPECT_FALSE(store.has({1, 0}));  // 59 s old > 30 s
  EXPECT_TRUE(store.has({1, 1}));   // 10 s old
  // Accepted ids survive (at-most-once outlives purging).
  EXPECT_TRUE(store.accepted({1, 0}));
}

TEST(MessageStore, PurgeBeforeMaxAgeIsNoop) {
  MessageStore store;
  store.insert(make_msg(1, 0), 0);
  store.purge(des::seconds(10), des::seconds(30));
  EXPECT_TRUE(store.has({1, 0}));
}

TEST(MessageStore, AtMostOnceSurvivesPurgeCycle) {
  // A duplicate arriving after its buffer entry was purged must still be
  // rejected — the validity property's second clause.
  MessageStore store;
  store.insert(make_msg(1, 0), 0);
  store.mark_accepted({1, 0});
  store.purge(des::seconds(100), des::seconds(30));
  EXPECT_FALSE(store.has({1, 0}));
  EXPECT_FALSE(store.mark_accepted({1, 0}));
}

TEST(MessageStore, StabilityPrefixTracksContiguousAccepts) {
  MessageStore store;
  EXPECT_EQ(store.stability_prefix(1), 0u);
  store.mark_accepted({1, 0});
  EXPECT_EQ(store.stability_prefix(1), 1u);
  store.mark_accepted({1, 2});  // gap at seq 1
  EXPECT_EQ(store.stability_prefix(1), 1u);
  store.mark_accepted({1, 1});  // gap filled: prefix jumps past both
  EXPECT_EQ(store.stability_prefix(1), 3u);
  // Independent per origin.
  store.mark_accepted({2, 0});
  EXPECT_EQ(store.stability_prefix(2), 1u);
  EXPECT_EQ(store.stability_prefix(1), 3u);
}

TEST(MessageStore, StabilityVectorListsNonZeroOrigins) {
  MessageStore store;
  EXPECT_TRUE(store.stability_vector().empty());
  store.mark_accepted({5, 0});
  store.mark_accepted({5, 1});
  store.mark_accepted({9, 1});  // gap at 0: prefix stays 0, not listed
  auto v = store.stability_vector();
  ASSERT_EQ(v.size(), 1u);
  EXPECT_EQ(v[0], (std::pair<NodeId, std::uint32_t>{5, 2}));
}

std::vector<std::tuple<NodeId, std::uint32_t, std::uint64_t>> frontier_of(
    const MessageStore& store) {
  std::vector<std::tuple<NodeId, std::uint32_t, std::uint64_t>> out;
  for (const FrontierEntry& e : store.frontier()) {
    out.emplace_back(e.origin, e.prefix, e.tail_digest);
  }
  return out;
}

// The per-origin record (prefix plus ragged tail) against the plain
// definition it replaces: the set of every id ever accepted. Random
// accept orders over four origins, with duplicates, purges in between,
// origin 0's seq 0 arriving last and origin 3 never sending seq 0, so
// its accepts only ever form a tail.
TEST(MessageStore, AcceptedRecordMatchesTheSetOfAcceptedIds) {
  constexpr NodeId kOrigins = 4;
  constexpr std::uint32_t kSeqs = 12;
  des::Rng rng(2026);
  for (int round = 0; round < 300; ++round) {
    std::vector<MessageId> feed;
    const std::size_t length = 1 + rng.next_below(3 * kOrigins * kSeqs);
    for (std::size_t i = 0; i < length; ++i) {
      const auto origin = static_cast<NodeId>(rng.next_below(kOrigins));
      auto seq = static_cast<std::uint32_t>(rng.next_below(kSeqs));
      if (origin == 3 && seq == 0) seq = 1;
      if (origin == 0 && seq == 0) continue;
      feed.push_back({origin, seq});
    }
    feed.push_back({0, 0});

    MessageStore store;
    std::set<MessageId> reference;
    des::SimTime now = 0;
    for (const MessageId& id : feed) {
      EXPECT_EQ(store.mark_accepted(id), reference.insert(id).second);
      store.insert(make_msg(id.origin, id.seq), now);
      now += des::millis(100);
      if (rng.chance(0.1)) store.purge(now, des::millis(500));

      EXPECT_EQ(store.accepted_count(), reference.size());
      std::vector<std::pair<NodeId, std::uint32_t>> vector;
      for (NodeId origin = 0; origin < kOrigins; ++origin) {
        std::uint32_t prefix = 0;
        while (reference.count({origin, prefix}) > 0) ++prefix;
        ASSERT_EQ(store.stability_prefix(origin), prefix)
            << "origin " << origin;
        if (prefix > 0) vector.emplace_back(origin, prefix);
        const bool has_tail =
            reference.lower_bound({origin, prefix}) !=
            reference.lower_bound({origin + 1, 0});
        EXPECT_EQ(store.tail_digest(origin) != 0, has_tail);
        for (std::uint32_t seq = 0; seq <= kSeqs; ++seq) {
          ASSERT_EQ(store.accepted({origin, seq}),
                    reference.count({origin, seq}) > 0)
              << origin << ":" << seq;
        }
      }
      EXPECT_EQ(store.stability_vector(), vector);
    }

    // The frontier depends on the accepted ids, not their order: one
    // entry per origin accepted from, equal to a store fed in reverse.
    MessageStore reversed;
    for (auto it = feed.rbegin(); it != feed.rend(); ++it) {
      reversed.mark_accepted(*it);
    }
    EXPECT_EQ(frontier_of(store), frontier_of(reversed));
    std::set<NodeId> origins;
    for (const MessageId& id : reference) origins.insert(id.origin);
    ASSERT_EQ(store.frontier().size(), origins.size());
    for (const FrontierEntry& e : store.frontier()) {
      EXPECT_EQ(e.prefix, store.stability_prefix(e.origin));
      EXPECT_EQ(e.tail_digest, store.tail_digest(e.origin));
    }
  }
}

TEST(MessageStore, PurgeIfDropsOnlyStableAndOldEnough) {
  MessageStore store;
  store.insert(make_msg(1, 0), des::seconds(1));
  store.insert(make_msg(1, 1), des::seconds(1));
  store.insert(make_msg(1, 2), des::seconds(9));  // too young
  auto stable = [](const MessageId& id) { return id.seq != 1; };
  store.purge_if(des::seconds(10), /*min_age=*/des::seconds(5), stable);
  EXPECT_FALSE(store.has({1, 0}));  // old + stable
  EXPECT_TRUE(store.has({1, 1}));   // old but not stable
  EXPECT_TRUE(store.has({1, 2}));   // stable but too young
}

// ---------------------------------------------------------------------------
// GossipQueue
// ---------------------------------------------------------------------------

GossipEntry entry(NodeId origin, std::uint32_t seq) {
  return {{origin, seq}, {0x42}};
}

TEST(GossipQueue, RepeatsEntryConfiguredTimes) {
  GossipQueue q({.repeats = 3, .max_entries_per_packet = 32});
  q.enqueue(entry(1, 0));
  for (int round = 0; round < 3; ++round) {
    auto packets = q.flush();
    ASSERT_EQ(packets.size(), 1u) << "round " << round;
    EXPECT_EQ(packets[0].entries.size(), 1u);
  }
  EXPECT_TRUE(q.flush().empty());
  EXPECT_EQ(q.pending(), 0u);
}

TEST(GossipQueue, AggregatesIntoBundles) {
  GossipQueue q({.repeats = 1, .max_entries_per_packet = 4});
  for (std::uint32_t i = 0; i < 10; ++i) q.enqueue(entry(1, i));
  auto packets = q.flush();
  ASSERT_EQ(packets.size(), 3u);  // 4 + 4 + 2
  EXPECT_EQ(packets[0].entries.size(), 4u);
  EXPECT_EQ(packets[2].entries.size(), 2u);
}

TEST(GossipQueue, BundlesStopAtTheParserCap) {
  EXPECT_THROW(GossipQueue({.repeats = 1,
                            .max_entries_per_packet = kMaxGossipEntries + 1}),
               std::invalid_argument);
  GossipQueue q({.repeats = 1, .max_entries_per_packet = kMaxGossipEntries});
  for (std::uint32_t i = 0; i <= kMaxGossipEntries; ++i) q.enqueue(entry(1, i));
  auto packets = q.flush();
  ASSERT_EQ(packets.size(), 2u);
  ASSERT_EQ(packets[0].entries.size(), kMaxGossipEntries);
  EXPECT_TRUE(parse_packet_shared(serialize(packets[0])).has_value());
}

TEST(GossipQueue, ReenqueueRefreshesInsteadOfDuplicating) {
  GossipQueue q({.repeats = 2, .max_entries_per_packet = 32});
  q.enqueue(entry(1, 0));
  (void)q.flush();  // one repeat consumed
  q.enqueue(entry(1, 0));  // refresh
  EXPECT_EQ(q.pending(), 1u);
  EXPECT_EQ(q.flush()[0].entries.size(), 1u);
  EXPECT_EQ(q.flush()[0].entries.size(), 1u);  // refreshed to 2 repeats
  EXPECT_TRUE(q.flush().empty());
}

// ---------------------------------------------------------------------------
// ProtocolConfig
// ---------------------------------------------------------------------------

TEST(ProtocolConfig, MaxTimeoutMatchesAnalysisFormula) {
  // gossip + request + rebroadcast timeouts + 3β, with the gossip period
  // off its default so the field is shown to feed the formula.
  ProtocolConfig config;
  config.gossip_period = des::millis(300);
  EXPECT_EQ(config.max_timeout(), des::millis(300 + 150 + 100 + 15));
}

// ---------------------------------------------------------------------------
// Metrics
// ---------------------------------------------------------------------------

TEST(Metrics, DeliveryRatioAveragesOverBroadcasts) {
  stats::Metrics m;
  m.on_broadcast({1, 0}, 0, /*targets=*/2);
  m.on_broadcast({1, 1}, 0, /*targets=*/2);
  m.on_accept({1, 0}, 5, des::millis(10));
  m.on_accept({1, 0}, 6, des::millis(20));
  m.on_accept({1, 1}, 5, des::millis(10));
  EXPECT_DOUBLE_EQ(m.delivery_ratio(), (1.0 + 0.5) / 2);
  EXPECT_DOUBLE_EQ(m.full_delivery_fraction(), 0.5);
  EXPECT_EQ(m.latency().count(), 3u);
}

TEST(Metrics, FlagsDuplicateAndUnknownAccepts) {
  stats::Metrics m;
  m.on_broadcast({1, 0}, 0, 2);
  m.on_accept({1, 0}, 5, 10);
  m.on_accept({1, 0}, 5, 20);   // duplicate
  m.on_accept({9, 9}, 5, 30);   // unknown key
  EXPECT_EQ(m.duplicate_accepts(), 1u);
  EXPECT_EQ(m.unknown_accepts(), 1u);
  EXPECT_EQ(m.latency().count(), 1u);  // only the first accept counted
}

TEST(Metrics, PacketAccounting) {
  stats::Metrics m;
  m.on_packet_sent(stats::MsgKind::kData, 100);
  m.on_packet_sent(stats::MsgKind::kData, 50);
  m.on_packet_sent(stats::MsgKind::kGossip, 10);
  EXPECT_EQ(m.packets(stats::MsgKind::kData), 2u);
  EXPECT_EQ(m.packet_bytes(stats::MsgKind::kData), 150u);
  EXPECT_EQ(m.total_packets(), 3u);
  EXPECT_EQ(m.total_packet_bytes(), 160u);
}

TEST(Metrics, LatencyPercentiles) {
  stats::LatencyRecorder rec;
  EXPECT_EQ(rec.percentile(0.5), 0.0);  // empty
  for (int i = 1; i <= 100; ++i) rec.record(i);
  EXPECT_DOUBLE_EQ(rec.mean(), 50.5);
  EXPECT_DOUBLE_EQ(rec.percentile(0.5), 50);
  EXPECT_DOUBLE_EQ(rec.percentile(0.99), 99);
  EXPECT_DOUBLE_EQ(rec.percentile(1.0), 100);
  EXPECT_DOUBLE_EQ(rec.max(), 100);
}

}  // namespace
}  // namespace byzcast::core
