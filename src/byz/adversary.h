// Byzantine behaviour models (fault injection, DESIGN.md S15).
//
// Each adversary subclasses ByzcastNode and overrides exactly the steps
// it corrupts, inheriting the honest machinery for everything else —
// which is what makes the attacks credible: a MuteAdversary still sends
// perfectly valid HELLOs claiming overlay membership, so only its
// *silence* can betray it, exactly the failure mode the paper's MUTE
// detector exists for.
//
// The menagerie covers §2.1's failure list: "Byzantine processes may fail
// to send messages [Mute, SelectiveForwarder], send too many messages
// [Verbose], send messages with false information [Forger, Liar,
// FakeGossiper]".
#pragma once

#include <memory>
#include <string>

#include "core/byzcast_node.h"
#include "net/timer.h"

namespace byzcast::byz {

enum class AdversaryKind {
  kNone,                ///< honest node
  kMute,                ///< claims overlay membership, forwards nothing
  kVerbose,             ///< floods REQUEST_MSGs for messages it has
  kForger,              ///< injects DATA with forged signatures
  kLiar,                ///< forwards DATA with tampered payloads
  kFakeGossiper,        ///< gossips claims it refuses to back with data
  kSelectiveForwarder,  ///< drops a random fraction of forwards
  kDelayedMute,         ///< honest until an onset time, then mute
  kTransientMute,       ///< mute only during [onset, onset+duration]
  kHelloLiar,           ///< fabricates HELLO contents (election attack)
  kReplayer,            ///< replays old valid DATA messages
};

const char* adversary_kind_name(AdversaryKind kind);
AdversaryKind adversary_kind_from_name(const std::string& name);

/// Behaviour knobs shared by the adversary constructors; every field has
/// a sensible default so `make_adversary(kind, ...)` works bare.
struct AdversaryParams {
  /// kDelayedMute / kTransientMute: when the node stops cooperating.
  des::SimDuration mute_onset = des::seconds(30);
  /// kTransientMute: how long the mute interval lasts.
  des::SimDuration mute_duration = des::seconds(15);
  /// kSelectiveForwarder: probability of behaving honestly per message.
  double forward_prob = 0.3;
  /// kVerbose: spam period. kReplayer: replay period.
  des::SimDuration action_period = des::millis(5);
  /// kForger: whose identity to forge. kHelloLiar: whom to accuse.
  NodeId victim = 0;
};

/// Claims overlay membership in every HELLO but never forwards DATA,
/// never gossips, never answers recovery requests. The paper's "most
/// adverse impact" failure (§4 preamble).
class MuteAdversary final : public core::ByzcastNode {
 public:
  using ByzcastNode::ByzcastNode;

 protected:
  void handle_data(const core::DataMsg& msg, NodeId from) override;
  void handle_gossip(const core::GossipMsg& msg, NodeId from) override;
  void handle_request(const core::RequestMsg& msg, NodeId from) override;
  void handle_find(const core::FindMissingMsg& msg, NodeId from) override;
  void on_hello_tick() override;
  void on_gossip_tick() override;
};

/// Runs the honest protocol but additionally sprays REQUEST_MSGs for
/// messages it already holds at `spam_period`, trying to make overlay
/// nodes burn airtime on retransmissions.
class VerboseAdversary final : public core::ByzcastNode {
 public:
  VerboseAdversary(net::Env& env, net::Transport& transport,
                   const crypto::Pki& pki, crypto::Signer signer,
                   core::ProtocolConfig config,
                   stats::Metrics* metrics = nullptr,
                   des::SimDuration spam_period = des::millis(5));
  void start() override;
  void stop() override;

 private:
  void spam();
  net::PeriodicTimer spam_timer_;
  std::vector<core::GossipEntry> known_entries_;

 protected:
  void handle_data(const core::DataMsg& msg, NodeId from) override;
};

/// Periodically injects DATA messages that claim another node as
/// originator with a random signature (it cannot forge a real one) —
/// the validity property's direct antagonist.
class ForgerAdversary final : public core::ByzcastNode {
 public:
  ForgerAdversary(net::Env& env, net::Transport& transport,
                  const crypto::Pki& pki, crypto::Signer signer,
                  core::ProtocolConfig config,
                  stats::Metrics* metrics = nullptr,
                  des::SimDuration forge_period = des::millis(500),
                  NodeId victim = 0);
  void start() override;
  void stop() override;

 private:
  void forge();
  net::PeriodicTimer forge_timer_;
  NodeId victim_;
  std::uint32_t forged_seq_ = 1'000'000;  // away from real sequence space
};

/// Forwards every DATA message with one payload byte flipped, keeping the
/// original signature — receivers must detect and reject the tampering.
class LiarAdversary final : public core::ByzcastNode {
 public:
  using ByzcastNode::ByzcastNode;

 protected:
  void handle_data(const core::DataMsg& msg, NodeId from) override;
  void on_hello_tick() override;
};

/// Relays gossip for messages it does not hold (violating the protocol's
/// "only gossip what you received" rule) and never answers REQUEST/FIND —
/// the exact behaviour §3.2.2 promises gets suspected: "If q gossips
/// about messages that do not exist or q does not want to supply them, it
/// will be suspected."
class FakeGossiperAdversary final : public core::ByzcastNode {
 public:
  using ByzcastNode::ByzcastNode;

 protected:
  void handle_gossip(const core::GossipMsg& msg, NodeId from) override;
  void handle_request(const core::RequestMsg& msg, NodeId from) override;
  void handle_find(const core::FindMissingMsg& msg, NodeId from) override;
};

/// Claims overlay membership but forwards each DATA only with probability
/// `forward_prob` — a stealthier mute node.
class SelectiveForwarder final : public core::ByzcastNode {
 public:
  SelectiveForwarder(net::Env& env, net::Transport& transport,
                     const crypto::Pki& pki, crypto::Signer signer,
                     core::ProtocolConfig config,
                     stats::Metrics* metrics = nullptr,
                     double forward_prob = 0.3);

 protected:
  void handle_data(const core::DataMsg& msg, NodeId from) override;
  void handle_request(const core::RequestMsg& msg, NodeId from) override;
  void handle_find(const core::FindMissingMsg& msg, NodeId from) override;
  void on_hello_tick() override;

 private:
  double forward_prob_;
};

/// Runs the honest protocol until `params.mute_onset`, then turns mute —
/// the clean fault-onset semantics the healing-timeline experiment (E5)
/// needs: a correct baseline, a fault event, a detection, a recovery.
class DelayedMuteAdversary final : public core::ByzcastNode {
 public:
  DelayedMuteAdversary(net::Env& env, net::Transport& transport,
                       const crypto::Pki& pki, crypto::Signer signer,
                       core::ProtocolConfig config, stats::Metrics* metrics,
                       des::SimDuration onset);

 protected:
  void handle_data(const core::DataMsg& msg, NodeId from) override;
  void handle_gossip(const core::GossipMsg& msg, NodeId from) override;
  void handle_request(const core::RequestMsg& msg, NodeId from) override;
  void handle_find(const core::FindMissingMsg& msg, NodeId from) override;
  void on_hello_tick() override;
  void on_gossip_tick() override;

 private:
  [[nodiscard]] bool faulty() const { return env_.now() >= onset_; }
  des::SimTime onset_;
};

/// Mute only during the interval [onset, onset+duration] — the paper's
/// I-mute model (§2.2): a "mute interval" that the detector must catch
/// (Interval Local Completeness) and a return to correctness after which
/// suspicions must eventually clear (Interval Strong Accuracy via the
/// aging mechanism).
class TransientMuteAdversary final : public core::ByzcastNode {
 public:
  TransientMuteAdversary(net::Env& env, net::Transport& transport,
                         const crypto::Pki& pki, crypto::Signer signer,
                         core::ProtocolConfig config, stats::Metrics* metrics,
                         des::SimDuration onset, des::SimDuration duration);

 protected:
  void handle_data(const core::DataMsg& msg, NodeId from) override;
  void handle_gossip(const core::GossipMsg& msg, NodeId from) override;
  void handle_request(const core::RequestMsg& msg, NodeId from) override;
  void handle_find(const core::FindMissingMsg& msg, NodeId from) override;
  void on_hello_tick() override;
  void on_gossip_tick() override;

 private:
  [[nodiscard]] bool faulty() const {
    return env_.now() >= onset_ && env_.now() < onset_ + duration_;
  }
  des::SimTime onset_;
  des::SimDuration duration_;
};

/// Election attacker: forwards data honestly but fabricates its HELLOs —
/// claims every node it ever heard of as a neighbour, always claims
/// dominator status, and accuses a victim of being Byzantine. §3.3's
/// damage bound says this can only *add* correct nodes to the overlay
/// and mark the victim "unknown"; it cannot partition correct nodes.
class HelloLiarAdversary final : public core::ByzcastNode {
 public:
  HelloLiarAdversary(net::Env& env, net::Transport& transport,
                     const crypto::Pki& pki, crypto::Signer signer,
                     core::ProtocolConfig config, stats::Metrics* metrics,
                     NodeId victim);

 protected:
  void on_hello_tick() override;

 private:
  NodeId victim_;
};

/// Replays previously-heard valid DATA messages at `action_period`,
/// long after the originals — the at-most-once clause of the validity
/// property is its direct antagonist (accepted ids outlive purging).
class ReplayerAdversary final : public core::ByzcastNode {
 public:
  ReplayerAdversary(net::Env& env, net::Transport& transport,
                    const crypto::Pki& pki, crypto::Signer signer,
                    core::ProtocolConfig config, stats::Metrics* metrics,
                    des::SimDuration replay_period);
  void start() override;
  void stop() override;

 protected:
  void handle_data(const core::DataMsg& msg, NodeId from) override;

 private:
  void replay();
  net::PeriodicTimer replay_timer_;
  std::vector<core::DataMsg> recorded_;
};

/// Constructs a node with the requested behaviour against an
/// Env/Transport pair (any backend). Honest nodes get a plain
/// ByzcastNode.
std::unique_ptr<core::ByzcastNode> make_adversary(
    AdversaryKind kind, net::Env& env, net::Transport& transport,
    const crypto::Pki& pki, crypto::Signer signer,
    core::ProtocolConfig config, stats::Metrics* metrics = nullptr,
    const AdversaryParams& params = {});

}  // namespace byzcast::byz
