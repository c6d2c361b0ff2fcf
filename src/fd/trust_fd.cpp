#include "fd/trust_fd.h"

#include <algorithm>

namespace byzcast::fd {

const char* suspicion_reason_name(SuspicionReason reason) {
  switch (reason) {
    case SuspicionReason::kBadSignature:
      return "bad-signature";
    case SuspicionReason::kMute:
      return "mute";
    case SuspicionReason::kVerbose:
      return "verbose";
    case SuspicionReason::kProtocolViolation:
      return "protocol-violation";
  }
  return "?";
}

void TrustFd::suspect(NodeId node, SuspicionReason reason) {
  ++reason_counts_[static_cast<std::size_t>(reason)];
  untrusted_until_[node] = env_.now() + config_.suspicion_interval;
}

void TrustFd::neighbor_report(NodeId reporter, NodeId about) {
  // §3.3: "p changes r's overlay_trust to unknown, unless p already
  // suspects either q or r".
  if (level(reporter) == TrustLevel::kUntrusted) return;
  if (level(about) == TrustLevel::kUntrusted) return;
  reported_until_[about] = env_.now() + config_.report_interval;
}

TrustLevel TrustFd::level(NodeId node) const {
  auto direct = untrusted_until_.find(node);
  if (direct != untrusted_until_.end() && direct->second > env_.now()) {
    return TrustLevel::kUntrusted;
  }
  auto reported = reported_until_.find(node);
  if (reported != reported_until_.end() && reported->second > env_.now()) {
    return TrustLevel::kUnknown;
  }
  return TrustLevel::kTrusted;
}

std::vector<NodeId> TrustFd::untrusted() const {
  std::vector<NodeId> out;
  for (const auto& [node, until] : untrusted_until_) {
    if (until > env_.now()) out.push_back(node);
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::uint64_t TrustFd::suspicion_events(SuspicionReason reason) const {
  return reason_counts_[static_cast<std::size_t>(reason)];
}

void TrustFd::poll_gauges(obs::GaugeVisitor& visitor) const {
  std::int64_t live_untrusted = 0;
  for (const auto& [node, until] : untrusted_until_) {
    if (until > env_.now()) ++live_untrusted;
  }
  std::int64_t live_reported = 0;
  for (const auto& [node, until] : reported_until_) {
    if (until > env_.now()) ++live_reported;
  }
  visitor.gauge("untrusted", live_untrusted);
  visitor.gauge("reported", live_reported);
}

void TrustFd::reset() {
  untrusted_until_.clear();
  reported_until_.clear();
  for (auto& count : reason_counts_) count = 0;
}

}  // namespace byzcast::fd
