// TRUST failure detector (paper §2.2, §3.3).
//
// Aggregates every local evidence source — MUTE suspicions, VERBOSE
// suspicions, bad signatures, other protocol violations — plus suspicion
// reports gossiped by neighbours, into the per-node `overlay_trust`
// variable of §3.3:
//
//   untrusted — our own TRUST suspects the node;
//   unknown   — a neighbour we trust reported suspecting the node
//               ("unless p already suspects either q or r");
//   trusted   — no reason to suspect.
//
// Suspicions expire (interval semantics), matching the aging the paper
// prescribes so false suspicions heal. The overlay consumes `level()` to
// route around detectably-Byzantine nodes.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "net/env.h"
#include "fd/fd_types.h"
#include "obs/gauge.h"

namespace byzcast::fd {

struct TrustFdConfig {
  /// How long a direct suspicion (untrusted) lasts.
  des::SimDuration suspicion_interval = des::seconds(30);
  /// How long a neighbour report (unknown) lasts.
  des::SimDuration report_interval = des::seconds(30);
};

class TrustFd : public obs::GaugeSource {
 public:
  TrustFd(net::Env& env, TrustFdConfig config)
      : env_(env), config_(config) {}

  /// Figure 2: suspect(node id, suspicion reason).
  void suspect(NodeId node, SuspicionReason reason);

  /// A neighbour (`reporter`) told us it suspects `about`. Ignored when we
  /// already distrust the reporter, or already distrust `about` (§3.3).
  void neighbor_report(NodeId reporter, NodeId about);

  [[nodiscard]] TrustLevel level(NodeId node) const;
  [[nodiscard]] bool suspects(NodeId node) const {
    return level(node) == TrustLevel::kUntrusted;
  }
  /// Nodes currently untrusted (directly suspected), sorted.
  [[nodiscard]] std::vector<NodeId> untrusted() const;

  /// Count of suspect() calls per reason, for diagnostics and tests.
  [[nodiscard]] std::uint64_t suspicion_events(SuspicionReason reason) const;

  /// Wipes all suspicions, reports and event counters (crash of the
  /// owning node's volatile state).
  void reset();

  /// Gauges: `untrusted` (live direct suspicions) and `reported` (live
  /// neighbour reports, the unknown level) — the paper's two suspicion
  /// tiers, sampled by the obs::Timeline.
  void poll_gauges(obs::GaugeVisitor& visitor) const override;

 private:
  net::Env& env_;
  TrustFdConfig config_;
  std::unordered_map<NodeId, des::SimTime> untrusted_until_;
  std::unordered_map<NodeId, des::SimTime> reported_until_;
  std::uint64_t reason_counts_[4] = {};
};

}  // namespace byzcast::fd
