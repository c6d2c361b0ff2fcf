// Range-sync subsystem tests (sync/backoff.h, sync/sync.h, DESIGN.md §11):
// the shared backoff policy, the MessageStore frontier queries, the
// session state machine against loss / crashed peers / Byzantine
// responders (driven through a deterministic in-memory packet switch),
// and scenario-level crash-recover catch-up including the peer-crash
// failover acceptance run and run-to-run determinism with sync enabled.
#include <gtest/gtest.h>

#include <chrono>
#include <memory>
#include <optional>
#include <set>
#include <stdexcept>

#include "core/message_store.h"
#include "sim/runner.h"
#include "sync/backoff.h"
#include "sync/sync.h"

namespace byzcast {
namespace {

// ---------------------------------------------------------------------------
// Backoff
// ---------------------------------------------------------------------------

TEST(Backoff, DoublesAndCapsWithoutJitter) {
  sync::BackoffPolicy policy{des::millis(100), des::millis(400), 0.0,
                             /*jitter_from_attempt=*/0, /*max_attempts=*/4};
  sync::Backoff backoff(policy);
  des::Rng rng(1);
  EXPECT_EQ(backoff.next_delay(rng), des::millis(100));
  EXPECT_EQ(backoff.next_delay(rng), des::millis(200));
  EXPECT_EQ(backoff.next_delay(rng), des::millis(400));
  EXPECT_EQ(backoff.next_delay(rng), des::millis(400));  // capped
  EXPECT_TRUE(backoff.exhausted());
  backoff.reset();
  EXPECT_FALSE(backoff.exhausted());
  EXPECT_EQ(backoff.next_delay(rng), des::millis(100));
}

TEST(Backoff, JitterStaysInsideTheConfiguredWindow) {
  sync::BackoffPolicy policy{des::millis(1000), des::seconds(8), 0.25,
                             /*jitter_from_attempt=*/0, /*max_attempts=*/100};
  sync::Backoff backoff(policy);
  des::Rng rng(7);
  for (int i = 0; i < 3; ++i) {
    des::SimDuration d = backoff.next_delay(rng);
    des::SimDuration nominal = des::millis(1000) << i;
    EXPECT_GE(d, nominal - nominal / 4) << "attempt " << i;
    EXPECT_LE(d, nominal + nominal / 4) << "attempt " << i;
  }
}

TEST(Backoff, FirstAttemptExactWhenJitterDeferred) {
  // jitter_from_attempt = 1 is what keeps the REQUEST_MSG retry path on
  // the legacy fixed spacing for its first retry (determinism golden
  // hashes) — the delay must be *exact* and must not consume the Rng.
  sync::BackoffPolicy policy{des::seconds(1), des::seconds(8), 0.25,
                             /*jitter_from_attempt=*/1, /*max_attempts=*/12};
  sync::Backoff backoff(policy);
  des::Rng rng(3);
  des::Rng untouched(3);
  EXPECT_EQ(backoff.next_delay(rng), des::seconds(1));
  EXPECT_EQ(rng.next_u64(), untouched.next_u64()) << "attempt 0 drew jitter";

  des::SimDuration second = backoff.next_delay(rng);
  EXPECT_GE(second, des::millis(1500));
  EXPECT_LE(second, des::millis(2500));
}

TEST(Backoff, DelayForIsTheDeterministicCore) {
  sync::BackoffPolicy policy{des::millis(100), des::millis(800), 0.5,
                             /*jitter_from_attempt=*/0, /*max_attempts=*/10};
  sync::Backoff backoff(policy);
  EXPECT_EQ(backoff.delay_for(0, -1.0), des::millis(50));
  EXPECT_EQ(backoff.delay_for(1, 0.0), des::millis(200));
  EXPECT_EQ(backoff.delay_for(5, 0.0), des::millis(800));  // capped
  EXPECT_GE(backoff.delay_for(0, -2.0), des::SimDuration{1})
      << "delays never collapse to zero";
}

// ---------------------------------------------------------------------------
// MessageStore frontier queries
// ---------------------------------------------------------------------------

core::DataMsg signed_data(const crypto::Signer& origin, std::uint32_t seq,
                          std::uint8_t fill) {
  core::DataMsg msg;
  msg.id = {origin.id(), seq};
  msg.ttl = 1;
  msg.payload = std::vector<std::uint8_t>(16, fill);
  msg.sig = origin.sign(core::data_sign_bytes(msg.id, msg.payload));
  msg.gossip_sig = origin.sign(core::gossip_sign_bytes(msg.id));
  return msg;
}

TEST(StoreFrontier, TracksPrefixAndRaggedTail) {
  crypto::Pki pki{des::Rng(11)};
  crypto::Signer origin = pki.register_node(3);
  core::MessageStore store;
  for (std::uint32_t seq : {0u, 1u, 3u}) {  // hole at 2
    store.insert(signed_data(origin, seq, 0xAA), des::seconds(1));
    store.mark_accepted({3, seq});
  }
  auto frontier = store.frontier();
  ASSERT_EQ(frontier.size(), 1u);
  EXPECT_EQ(frontier[0].origin, 3u);
  EXPECT_EQ(frontier[0].prefix, 2u);
  EXPECT_NE(frontier[0].tail_digest, 0u) << "ragged tail {3} not digested";
  EXPECT_EQ(frontier[0].tail_digest, store.tail_digest(3));

  // Filling the hole extends the prefix and empties the tail.
  store.insert(signed_data(origin, 2, 0xAA), des::seconds(2));
  store.mark_accepted({3, 2});
  frontier = store.frontier();
  ASSERT_EQ(frontier.size(), 1u);
  EXPECT_EQ(frontier[0].prefix, 4u);
  EXPECT_EQ(frontier[0].tail_digest, 0u);
}

TEST(StoreFrontier, EqualAcceptedSetsHaveEqualDigests) {
  crypto::Pki pki{des::Rng(11)};
  crypto::Signer origin = pki.register_node(3);
  core::MessageStore a;
  core::MessageStore b;
  for (std::uint32_t seq : {1u, 4u, 7u}) {
    core::DataMsg msg = signed_data(origin, seq, 0xBB);
    a.insert(msg, des::seconds(1));
    a.mark_accepted(msg.id);
    b.insert(msg, des::seconds(9));  // receipt times differ; digest must not
    b.mark_accepted(msg.id);
  }
  EXPECT_EQ(a.tail_digest(3), b.tail_digest(3));
  EXPECT_NE(a.tail_digest(3), 0u);
}

TEST(StoreFrontier, StoredRangeIsHalfOpenAndOrdered) {
  crypto::Pki pki{des::Rng(11)};
  crypto::Signer origin = pki.register_node(3);
  core::MessageStore store;
  for (std::uint32_t seq : {0u, 1u, 2u, 5u}) {
    store.insert(signed_data(origin, seq, 0xCC), des::seconds(1));
  }
  auto range = store.stored_range(3, 1, 3);  // [1, 4): seqs 1, 2
  ASSERT_EQ(range.size(), 2u);
  EXPECT_EQ(range[0]->msg.id.seq, 1u);
  EXPECT_EQ(range[1]->msg.id.seq, 2u);
  EXPECT_TRUE(store.stored_range(4, 0, 100).empty());
  // Overflow-safe end: from_seq near UINT32_MAX must not wrap.
  EXPECT_TRUE(store.stored_range(3, 0xFFFFFFFEu, 10).empty());
}

TEST(StoreFrontier, MissingInMatchesThePerSeqCount) {
  // missing_in reads the prefix and the tail; the reference asks
  // accepted() once per seq, as range-sync's missing count used to.
  des::Rng rng(41);
  for (int trial = 0; trial < 300; ++trial) {
    core::MessageStore store;
    const auto span = static_cast<std::uint32_t>(1 + rng.next_below(40));
    for (std::uint32_t i = 0; i < span; ++i) {
      const auto origin = static_cast<NodeId>(1 + rng.next_below(3));
      const auto seq = static_cast<std::uint32_t>(rng.next_below(span));
      store.mark_accepted({origin, seq});
    }
    for (int query = 0; query < 10; ++query) {
      const auto origin = static_cast<NodeId>(rng.next_below(5));
      const auto from = static_cast<std::uint32_t>(rng.next_below(span + 5));
      const auto count = static_cast<std::uint32_t>(rng.next_below(span + 5));
      std::uint64_t expected = 0;
      for (std::uint32_t seq = from; seq < from + count; ++seq) {
        if (!store.accepted({origin, seq})) ++expected;
      }
      EXPECT_EQ(store.missing_in(origin, from, count), expected)
          << "trial " << trial << ", origin " << origin << ", [" << from
          << ", " << from + count << ")";
    }
  }
  // Seqs past 2^32−1 do not exist: a range running over the top counts
  // only the seqs below it.
  core::MessageStore top;
  top.mark_accepted({7, 0xFFFFFFFFu});
  top.mark_accepted({7, 0xFFFFFFFDu});
  EXPECT_EQ(top.missing_in(7, 0xFFFFFFF0u, 100), 14u);
  EXPECT_EQ(top.missing_in(7, 0, 0xFFFFFFFFu), 0xFFFFFFFFu - 1);
}

// ---------------------------------------------------------------------------
// Session state machine, driven through an in-memory packet switch
// ---------------------------------------------------------------------------

/// Three SyncManagers (0 = requester, 1 and 2 = responders) wired through
/// a deterministic 1 ms switch with per-type drop counters, a tamper hook
/// for Byzantine-responder tests, and a kill switch per node.
class SyncHarness : public ::testing::Test {
 protected:
  static constexpr int kNodes = 3;

  SyncHarness() : pki_(des::Rng(29)) {
    config_.enabled = true;
    config_.startup_delay = des::millis(100);
    config_.backoff = {des::millis(200), des::millis(800), 0.25,
                       /*jitter_from_attempt=*/0, /*max_attempts=*/6};
    config_.batch_max_messages = 2;  // small batches exercise the paging
    for (NodeId id = 0; id < kNodes; ++id) {
      signers_.push_back(pki_.register_node(id));
      stores_.push_back(std::make_unique<core::MessageStore>());
    }
    for (NodeId id = 0; id < kNodes; ++id) {
      sync::SyncManager::Hooks hooks;
      hooks.send = [this, id](const core::Packet& packet) {
        route(id, packet);
      };
      hooks.candidates = [this, id]() {
        std::vector<NodeId> peers;
        if (no_candidates_) return peers;
        for (NodeId other = 0; other < kNodes; ++other) {
          if (other != id) peers.push_back(other);
        }
        return peers;
      };
      hooks.suspect = [this, id](NodeId peer, fd::SuspicionReason reason) {
        suspicions_[id].emplace_back(peer, reason);
      };
      hooks.admit = [this, id](const core::DataMsg& msg, NodeId) {
        stores_[id]->insert(msg, sim_.now());
        stores_[id]->mark_accepted(msg.id);
      };
      managers_.push_back(std::make_unique<sync::SyncManager>(
          sim_, id, pki_, signers_[id], *stores_[id], config_, std::move(hooks),
          des::Rng(1000 + id)));
    }
  }

  void seed(NodeId holder, const crypto::Signer& origin, std::uint32_t count,
            std::uint8_t fill) {
    for (std::uint32_t seq = 0; seq < count; ++seq) {
      core::DataMsg msg = signed_data(origin, seq, fill);
      stores_[holder]->insert(msg, sim_.now());
      stores_[holder]->mark_accepted(msg.id);
    }
  }

  void route(NodeId from, const core::Packet& packet) {
    if (dead_.count(from) != 0) return;
    std::visit([&](const auto& msg) { dispatch(from, msg); }, packet);
  }

  template <typename Msg>
  void deliver(NodeId from, NodeId target, Msg msg,
               void (sync::SyncManager::*handler)(const Msg&, NodeId)) {
    if (target >= kNodes || dead_.count(target) != 0) return;
    sim_.schedule_at(sim_.now() + des::millis(1),
                     [this, from, target, msg = std::move(msg), handler] {
                       if (dead_.count(from) != 0 || dead_.count(target) != 0) {
                         return;
                       }
                       sync::SyncManager* mgr =
                           target == 0 && node0_override_ != nullptr
                               ? node0_override_
                               : managers_[target].get();
                       (mgr->*handler)(msg, from);
                     });
  }

  void dispatch(NodeId from, const core::FrontierMsg& msg) {
    if (msg.response) {
      ++frontier_responses_;
      if (drop_frontier_responses_ > 0) {
        --drop_frontier_responses_;
        return;
      }
    } else {
      ++frontier_requests_;
      if (drop_frontier_requests_ > 0) {
        --drop_frontier_requests_;
        return;
      }
    }
    deliver(from, msg.target, msg, &sync::SyncManager::on_frontier);
  }

  void dispatch(NodeId from, const core::BulkPullMsg& msg) {
    ++pulls_;
    if (drop_pulls_ > 0) {
      --drop_pulls_;
      return;
    }
    deliver(from, msg.target, msg, &sync::SyncManager::on_bulk_pull);
  }

  void dispatch(NodeId from, core::BulkReplyMsg msg) {
    ++replies_;
    if (drop_replies_ > 0) {
      --drop_replies_;
      return;
    }
    if (tamper_reply_ && from == 1) msg = tamper_reply_(msg);
    deliver(from, msg.target, msg, &sync::SyncManager::on_bulk_reply);
    if (kill_node1_after_replies_ > 0 && from == 1 &&
        --kill_node1_after_replies_ == 0) {
      dead_.insert(1);
    }
  }

  template <typename Msg>
  void dispatch(NodeId, const Msg&) {}  // non-sync packets: not routed

  des::Simulator sim_{77};
  crypto::Pki pki_;
  sync::SyncConfig config_;
  std::vector<crypto::Signer> signers_;
  std::vector<std::unique_ptr<core::MessageStore>> stores_;
  std::vector<std::unique_ptr<sync::SyncManager>> managers_;

  std::set<NodeId> dead_;
  /// When set, node 0's incoming packets go here instead of managers_[0]
  /// (lets a test wire up a differently-configured requester).
  sync::SyncManager* node0_override_ = nullptr;
  bool no_candidates_ = false;
  int drop_frontier_requests_ = 0;
  int drop_frontier_responses_ = 0;
  int drop_pulls_ = 0;
  int drop_replies_ = 0;
  int kill_node1_after_replies_ = 0;
  std::function<core::BulkReplyMsg(core::BulkReplyMsg)> tamper_reply_;
  int frontier_requests_ = 0;
  int frontier_responses_ = 0;
  int pulls_ = 0;
  int replies_ = 0;
  std::map<NodeId, std::vector<std::pair<NodeId, fd::SuspicionReason>>>
      suspicions_;
};

TEST_F(SyncHarness, HappyPathPagesThroughTheWholeBacklog) {
  seed(1, signers_[1], 8, 0x11);
  seed(2, signers_[1], 8, 0x11);
  managers_[0]->begin_catchup();
  sim_.run_until(des::seconds(5));

  EXPECT_EQ(managers_[0]->sessions_completed(), 1u);
  EXPECT_EQ(managers_[0]->sessions_failed(), 0u);
  EXPECT_EQ(managers_[0]->failovers(), 0u);
  EXPECT_EQ(managers_[0]->messages_admitted(), 8u);
  EXPECT_GT(managers_[0]->bytes_admitted(), 0u);
  for (std::uint32_t seq = 0; seq < 8; ++seq) {
    EXPECT_TRUE(stores_[0]->accepted({1, seq})) << "missing seq " << seq;
  }
  // batch_max_messages = 2 forces 8/2 = 4 requester-driven pages.
  EXPECT_EQ(pulls_, 4);
  EXPECT_EQ(replies_, 4);
  // Frontiers now agree.
  EXPECT_EQ(stores_[0]->stability_prefix(1), stores_[1]->stability_prefix(1));
  EXPECT_EQ(stores_[0]->tail_digest(1), stores_[1]->tail_digest(1));
  EXPECT_EQ(managers_[0]->state(), sync::SyncManager::State::kIdle);
}

TEST_F(SyncHarness, NothingMissingFinishesWithoutPulling) {
  seed(0, signers_[1], 4, 0x22);
  seed(1, signers_[1], 4, 0x22);
  managers_[0]->begin_catchup();
  sim_.run_until(des::seconds(5));
  EXPECT_EQ(managers_[0]->sessions_completed(), 1u);
  EXPECT_EQ(managers_[0]->messages_admitted(), 0u);
  EXPECT_EQ(pulls_, 0);
}

TEST_F(SyncHarness, LostFrontierRequestRetriesAndCompletes) {
  seed(1, signers_[1], 4, 0x33);
  seed(2, signers_[1], 4, 0x33);
  drop_frontier_requests_ = 1;
  managers_[0]->begin_catchup();
  sim_.run_until(des::seconds(10));

  EXPECT_EQ(managers_[0]->sessions_completed(), 1u);
  EXPECT_EQ(managers_[0]->failovers(), 1u);
  EXPECT_EQ(managers_[0]->messages_admitted(), 4u);
}

TEST_F(SyncHarness, LostBulkReplyRetriesAndCompletes) {
  seed(1, signers_[1], 4, 0x44);
  seed(2, signers_[1], 4, 0x44);
  drop_replies_ = 1;
  managers_[0]->begin_catchup();
  sim_.run_until(des::seconds(10));

  EXPECT_EQ(managers_[0]->sessions_completed(), 1u);
  EXPECT_EQ(managers_[0]->failovers(), 1u);
  EXPECT_EQ(managers_[0]->messages_admitted(), 4u);
  for (std::uint32_t seq = 0; seq < 4; ++seq) {
    EXPECT_TRUE(stores_[0]->accepted({1, seq}));
  }
}

TEST_F(SyncHarness, PeerCrashMidTransferFailsOverToNextCandidate) {
  seed(1, signers_[1], 8, 0x55);
  seed(2, signers_[1], 8, 0x55);
  // Node 1 serves the frontier exchange and exactly one batch (2 of 8
  // messages), then dies mid-transfer. The session must time out and
  // complete against node 2 within the retry budget.
  kill_node1_after_replies_ = 1;
  managers_[0]->begin_catchup();
  sim_.run_until(des::seconds(10));

  EXPECT_EQ(managers_[0]->sessions_completed(), 1u);
  EXPECT_EQ(managers_[0]->sessions_failed(), 0u);
  EXPECT_GE(managers_[0]->failovers(), 1u);
  EXPECT_EQ(managers_[0]->messages_admitted(), 8u);
  for (std::uint32_t seq = 0; seq < 8; ++seq) {
    EXPECT_TRUE(stores_[0]->accepted({1, seq})) << "missing seq " << seq;
  }
}

TEST_F(SyncHarness, ForgedSignatureCondemnsTheWholeBatch) {
  seed(1, signers_[1], 4, 0x66);
  seed(2, signers_[1], 4, 0x66);
  // Node 1 replaces its (honestly built) batch with a blob whose
  // originator signatures are garbage, re-signing the batch so the
  // envelope itself verifies. Nothing from it may be admitted.
  tamper_reply_ = [this](core::BulkReplyMsg reply) {
    core::DataMsg forged;
    forged.id = {1, 0};
    forged.ttl = 1;
    forged.payload = std::vector<std::uint8_t>(16, 0xEE);
    forged.sig = {0xBADBAD};
    forged.gossip_sig = {0xBADBAD};
    reply.messages = {core::serialize(core::Packet{forged})};
    reply.last = true;
    reply.sig = signers_[1].sign(core::bulk_reply_sign_bytes(reply));
    return reply;
  };
  managers_[0]->begin_catchup();
  sim_.run_until(des::seconds(10));

  // The forged batch was rejected in full, node 1 was reported, and the
  // session completed against node 2 with the genuine messages.
  bool reported = false;
  for (const auto& [peer, reason] : suspicions_[0]) {
    if (peer == 1 && reason == fd::SuspicionReason::kBadSignature) {
      reported = true;
    }
  }
  EXPECT_TRUE(reported);
  EXPECT_EQ(managers_[0]->sessions_completed(), 1u);
  EXPECT_EQ(managers_[0]->messages_admitted(), 4u);
  const core::MessageStore::Stored* stored = stores_[0]->find({1, 0});
  ASSERT_NE(stored, nullptr);
  EXPECT_EQ(stored->msg.payload.span()[0], 0x66) << "forged payload admitted";
}

TEST_F(SyncHarness, BlobOutsideRequestedRangesIsRejected) {
  seed(1, signers_[1], 4, 0x77);
  seed(2, signers_[1], 4, 0x77);
  // A validly signed message the requester never asked for (origin 2,
  // seq 99) smuggled into an otherwise honest batch: whole-batch reject,
  // protocol-violation report, failover.
  tamper_reply_ = [this](core::BulkReplyMsg reply) {
    core::DataMsg unsolicited = signed_data(signers_[2], 99, 0x78);
    reply.messages.push_back(core::serialize(core::Packet{unsolicited}));
    reply.sig = signers_[1].sign(core::bulk_reply_sign_bytes(reply));
    return reply;
  };
  managers_[0]->begin_catchup();
  sim_.run_until(des::seconds(10));

  bool reported = false;
  for (const auto& [peer, reason] : suspicions_[0]) {
    if (peer == 1 && reason == fd::SuspicionReason::kProtocolViolation) {
      reported = true;
    }
  }
  EXPECT_TRUE(reported);
  EXPECT_EQ(managers_[0]->sessions_completed(), 1u);
  EXPECT_FALSE(stores_[0]->accepted({2, 99})) << "unsolicited blob admitted";
  EXPECT_EQ(managers_[0]->messages_admitted(), 4u);
}

TEST_F(SyncHarness, StarvingResponderTriggersImmediateFailover) {
  seed(1, signers_[1], 4, 0x88);
  seed(2, signers_[1], 4, 0x88);
  // Node 1 keeps promising more pages while serving nothing — the
  // no-progress guard must fail it over rather than loop forever.
  tamper_reply_ = [this](core::BulkReplyMsg reply) {
    reply.messages.clear();
    reply.last = false;
    reply.sig = signers_[1].sign(core::bulk_reply_sign_bytes(reply));
    return reply;
  };
  managers_[0]->begin_catchup();
  sim_.run_until(des::seconds(10));

  EXPECT_GE(managers_[0]->failovers(), 1u);
  EXPECT_EQ(managers_[0]->sessions_completed(), 1u);
  EXPECT_EQ(managers_[0]->messages_admitted(), 4u);
}

TEST_F(SyncHarness, NoCandidatesExhaustsTheBudgetAndGivesUp) {
  seed(1, signers_[1], 4, 0x99);
  no_candidates_ = true;
  managers_[0]->begin_catchup();
  sim_.run_until(des::seconds(30));

  EXPECT_EQ(managers_[0]->sessions_completed(), 0u);
  EXPECT_EQ(managers_[0]->sessions_failed(), 1u);
  EXPECT_EQ(managers_[0]->state(), sync::SyncManager::State::kIdle);
  EXPECT_EQ(frontier_requests_, 0);
}

TEST_F(SyncHarness, PeriodicSessionsPickUpLaterBacklog) {
  sync::SyncConfig periodic = config_;
  periodic.period = des::seconds(2);
  core::MessageStore store;
  std::uint64_t admitted = 0;
  sync::SyncManager::Hooks hooks;
  hooks.send = [this](const core::Packet& packet) { route(0, packet); };
  hooks.candidates = [] { return std::vector<NodeId>{1}; };
  hooks.suspect = [](NodeId, fd::SuspicionReason) {};
  hooks.admit = [&](const core::DataMsg& msg, NodeId) {
    ++admitted;
    store.insert(msg, des::seconds(0));
    store.mark_accepted(msg.id);
  };
  sync::SyncManager periodic_mgr(sim_, 0, pki_, signers_[0], store, periodic,
                                 std::move(hooks), des::Rng(42));
  node0_override_ = &periodic_mgr;
  periodic_mgr.start();
  // The backlog appears at node 1 only after the first periodic tick —
  // a later session has to pick it up.
  sim_.schedule_at(des::seconds(3), [this] { seed(1, signers_[1], 3, 0xAB); });
  sim_.run_until(des::seconds(9));
  periodic_mgr.stop();
  EXPECT_GE(periodic_mgr.sessions_completed(), 2u);
  EXPECT_EQ(admitted, 3u);
}

// ---------------------------------------------------------------------------
// Scenario level: crash-recover catch-up, failover acceptance, determinism
// ---------------------------------------------------------------------------

sim::ScenarioConfig sync_grid_scenario() {
  sim::ScenarioConfig config;
  config.seed = 7;
  config.n = 9;
  config.area = {240, 240};
  config.tx_range = 120;
  config.placement = sim::PlacementKind::kGrid;
  config.num_broadcasts = 8;
  config.broadcast_interval = des::millis(500);
  config.payload_bytes = 64;
  config.warmup = des::seconds(6);
  config.cooldown = des::seconds(12);
  config.protocol_config.sync.enabled = true;
  // Isolate the sync path: without the anti-entropy re-gossip extension
  // nobody re-advertises the old messages, so a rejoiner can only catch
  // up through its range-sync session.
  config.protocol_config.anti_entropy = false;
  return config;
}

TEST(SyncScenario, CrashedNodeCatchesUpThroughRangeSync) {
  sim::ScenarioConfig config = sync_grid_scenario();
  const NodeId crashed = 4;
  config.fault_schedule.events.push_back(
      {des::millis(6100), sim::FaultKind::kCrashStop, crashed, 0, {}});
  config.fault_schedule.events.push_back(
      {des::seconds(10), sim::FaultKind::kCrashRecover, crashed, 0, {}});

  sim::Network network(config);
  sim::RunResult result = sim::run_workload(network);
  const stats::Metrics& m = result.metrics;

  EXPECT_EQ(m.recoveries_returned(), 1u);
  EXPECT_EQ(m.recoveries_completed(), 1u)
      << "range-sync never completed the catch-up";
  core::ByzcastNode* node = network.byzcast_node(crashed);
  ASSERT_NE(node, nullptr);
  const sync::SyncManager* mgr = node->sync_manager();
  ASSERT_NE(mgr, nullptr);
  EXPECT_GE(mgr->sessions_completed(), 1u);
  EXPECT_GT(mgr->messages_admitted(), 0u)
      << "catch-up happened but not through sync";
  for (const auto& [key, rec] : m.records()) {
    EXPECT_TRUE(node->store().accepted({key.origin, key.seq}))
        << "missing (" << key.origin << "," << key.seq << ")";
  }
  EXPECT_GT(m.recovery_bytes(), 0u);
  EXPECT_EQ(m.duplicate_accepts(), 0u);
}

TEST(SyncScenario, PeerCrashMidTransferFailsOverWithinBudget) {
  // The acceptance run: the recovering node's session loses its peer
  // mid-transfer (crash through sim::FaultSchedule) and must complete
  // via failover within the retry budget. The peer the session picks is
  // deterministic, so a probe run discovers it and the real run crashes
  // exactly that node just after the session opens.
  sim::ScenarioConfig config = sync_grid_scenario();
  config.protocol_config.sync.batch_max_messages = 2;  // several pages
  const NodeId crashed = 4;
  config.fault_schedule.events.push_back(
      {des::millis(6100), sim::FaultKind::kCrashStop, crashed, 0, {}});
  config.fault_schedule.events.push_back(
      {des::seconds(10), sim::FaultKind::kCrashRecover, crashed, 0, {}});

  // Probe: recovery at 10 s + startup_delay 2 s = the session opens at
  // exactly t = 12 s; one tick later its peer choice is visible.
  NodeId victim = kInvalidNode;
  {
    sim::Network probe(config);
    probe.simulator().run_until(des::millis(12001));
    const sync::SyncManager* mgr =
        probe.byzcast_node(crashed)->sync_manager();
    ASSERT_NE(mgr, nullptr);
    ASSERT_NE(mgr->state(), sync::SyncManager::State::kIdle);
    victim = mgr->peer();
  }
  ASSERT_NE(victim, kInvalidNode);
  ASSERT_NE(victim, crashed);

  auto run_once = [&] {
    sim::ScenarioConfig with_victim = config;
    with_victim.fault_schedule.events.push_back(
        {des::millis(12005), sim::FaultKind::kCrashStop, victim, 0, {}});
    with_victim.fault_schedule.events.push_back(
        {des::seconds(20), sim::FaultKind::kCrashRecover, victim, 0, {}});
    return std::make_unique<sim::Network>(with_victim);
  };

  std::unique_ptr<sim::Network> network = run_once();
  sim::RunResult result = sim::run_workload(*network);
  core::ByzcastNode* node = network->byzcast_node(crashed);
  const sync::SyncManager* mgr = node->sync_manager();
  ASSERT_NE(mgr, nullptr);
  EXPECT_GE(mgr->failovers(), 1u) << "the session never lost its peer";
  EXPECT_GE(mgr->sessions_completed(), 1u);
  EXPECT_EQ(mgr->sessions_failed(), 0u) << "retry budget was exhausted";
  for (const auto& [key, rec] : result.metrics.records()) {
    EXPECT_TRUE(node->store().accepted({key.origin, key.seq}))
        << "missing (" << key.origin << "," << key.seq << ")";
  }

  // Determinism: the identical scenario replays to identical metrics and
  // identical session history.
  std::unique_ptr<sim::Network> network2 = run_once();
  sim::RunResult result2 = sim::run_workload(*network2);
  EXPECT_EQ(stats::snapshot(result.metrics), stats::snapshot(result2.metrics));
  const sync::SyncManager* mgr2 =
      network2->byzcast_node(crashed)->sync_manager();
  EXPECT_EQ(mgr->failovers(), mgr2->failovers());
  EXPECT_EQ(mgr->messages_admitted(), mgr2->messages_admitted());
  EXPECT_EQ(mgr->bytes_admitted(), mgr2->bytes_admitted());
}

// ---------------------------------------------------------------------------
// One manager and what it puts on the wire
// ---------------------------------------------------------------------------

/// A lone SyncManager (node 0) whose only candidate peer is node 1; every
/// packet it sends is kept. Unlike SyncHarness, tests here can serialize
/// and parse what was sent, and forge node 1's replies.
class SyncWire : public ::testing::Test {
 protected:
  SyncWire() : pki_(des::Rng(31)) {
    self_ = pki_.register_node(0);
    peer_ = pki_.register_node(1);
    config_.enabled = true;
  }

  std::unique_ptr<sync::SyncManager> make_manager() {
    sync::SyncManager::Hooks hooks;
    hooks.send = [this](const core::Packet& packet) {
      sent_.push_back(packet);
    };
    hooks.candidates = [] { return std::vector<NodeId>{1}; };
    hooks.suspect = [](NodeId, fd::SuspicionReason) {};
    hooks.admit = [](const core::DataMsg&, NodeId) {};
    return std::make_unique<sync::SyncManager>(sim_, 0, pki_, self_, store_,
                                               config_, std::move(hooks),
                                               des::Rng(5));
  }

  /// Opens a catch-up session; returns the FRONTIER request it sent.
  core::FrontierMsg open_session(sync::SyncManager& manager) {
    manager.begin_catchup();
    sim_.run_until(config_.startup_delay + 1);
    if (sent_.size() != 1) {
      ADD_FAILURE() << sent_.size() << " packets sent, expected one request";
      return {};
    }
    return std::get<core::FrontierMsg>(sent_.back());
  }

  /// A FRONTIER from node 1 to node 0, signed by node 1.
  core::FrontierMsg peer_frontier(bool response, std::uint32_t nonce,
                                  std::vector<core::FrontierEntry> entries) {
    core::FrontierMsg msg;
    msg.from = 1;
    msg.target = 0;
    msg.response = response;
    msg.nonce = nonce;
    msg.entries = std::move(entries);
    msg.sig = peer_.sign(core::frontier_sign_bytes(msg));
    return msg;
  }

  des::Simulator sim_{19};
  crypto::Pki pki_;
  crypto::Signer self_;
  crypto::Signer peer_;
  core::MessageStore store_;
  sync::SyncConfig config_;
  std::vector<core::Packet> sent_;
};

TEST_F(SyncWire, FrontiersPastTheCapCarryTheLowestOrigins) {
  // One origin more than a FRONTIER may list: both builders, the
  // opener's request and the responder's reply, must still parse.
  for (NodeId origin = 0; origin <= core::kMaxFrontierEntries; ++origin) {
    store_.mark_accepted({100 + origin, 0});
  }
  auto manager = make_manager();
  const core::FrontierMsg request = open_session(*manager);
  manager->on_frontier(peer_frontier(false, 7, {}), 1);
  ASSERT_EQ(sent_.size(), 2u);
  EXPECT_FALSE(request.response);
  EXPECT_TRUE(std::get<core::FrontierMsg>(sent_[1]).response);
  for (const core::Packet& packet : sent_) {
    std::optional<core::Packet> parsed =
        core::parse_packet_shared(core::serialize(packet));
    ASSERT_TRUE(parsed.has_value());
    const auto& frontier = std::get<core::FrontierMsg>(*parsed);
    ASSERT_EQ(frontier.entries.size(), core::kMaxFrontierEntries);
    EXPECT_EQ(frontier.entries.front().origin, 100u);
    EXPECT_EQ(frontier.entries.back().origin,
              100 + core::kMaxFrontierEntries - 1);
  }
}

TEST_F(SyncWire, HugeClaimedPrefixesAreCountedWithoutAWalk) {
  // A Byzantine responder claims every seq of 64 origins. Counting them
  // one by one took about 12 s per origin; from the accepted record it
  // is immediate, and exact.
  store_.mark_accepted({100, 0});
  store_.mark_accepted({100, 5});
  auto manager = make_manager();
  const core::FrontierMsg request = open_session(*manager);
  std::vector<core::FrontierEntry> claims;
  for (NodeId origin = 100; origin < 164; ++origin) {
    claims.push_back({origin, 0xFFFFFFFFu, 0});
  }
  const auto start = std::chrono::steady_clock::now();
  manager->on_frontier(peer_frontier(true, request.nonce, claims), 1);
  const auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_LT(elapsed, std::chrono::seconds(1));
  // Origin 100: [1, 2^32−1) less the accepted seq 5; the others whole.
  EXPECT_EQ(manager->last_missing(),
            64 * std::uint64_t{0xFFFFFFFFu} - 1 - 1);
  EXPECT_EQ(manager->state(), sync::SyncManager::State::kAwaitBatch);
  ASSERT_EQ(sent_.size(), 2u);
  EXPECT_EQ(std::get<core::BulkPullMsg>(sent_[1]).ranges.size(), 64u);
}

TEST_F(SyncWire, BatchSizeMustFitABulkReply) {
  for (std::size_t batch : {std::size_t{0}, core::kMaxBatchMessages + 1}) {
    config_.batch_max_messages = batch;
    EXPECT_THROW(make_manager(), std::invalid_argument) << batch;
  }
  for (std::size_t batch : {std::size_t{1}, core::kMaxBatchMessages}) {
    config_.batch_max_messages = batch;
    EXPECT_NO_THROW(make_manager()) << batch;
  }
}

TEST(SyncScenario, RunsAreDeterministicWithSyncEnabled) {
  sim::ScenarioConfig config = sync_grid_scenario();
  const NodeId crashed = 4;
  config.fault_schedule.events.push_back(
      {des::millis(6100), sim::FaultKind::kCrashStop, crashed, 0, {}});
  config.fault_schedule.events.push_back(
      {des::seconds(10), sim::FaultKind::kCrashRecover, crashed, 0, {}});

  sim::RunResult a = sim::run_scenario(config);
  sim::RunResult b = sim::run_scenario(config);
  std::string snap_a = stats::snapshot(a.metrics);
  EXPECT_FALSE(snap_a.empty());
  EXPECT_EQ(snap_a, stats::snapshot(b.metrics));
  EXPECT_EQ(a.metrics.recovery_bytes(), b.metrics.recovery_bytes());
}

}  // namespace
}  // namespace byzcast
