#include "net/peer_health.h"

#include <utility>

namespace byzcast::net {

PeerHealth::PeerHealth(Env& env, std::vector<NodeId> peers,
                       PeerHealthConfig config)
    : env_(env),
      config_(config),
      check_timer_(env, kCheckPeriod, [this] { check_silence(); }) {
  for (NodeId id : peers) peers_[id];
}

void PeerHealth::start() {
  const des::SimTime now = env_.now();
  for (auto& [id, stats] : peers_) stats.last_heard = now;
  check_timer_.start();
}

void PeerHealth::on_frame_from(NodeId peer) {
  auto it = peers_.find(peer);
  if (it == peers_.end()) return;  // unknown speaker; not ours to track
  PeerStats& stats = it->second;
  stats.last_heard = env_.now();
  ++stats.frames;
  stats.consecutive_send_errors = 0;
  if (stats.state == State::kSuspect) transition(peer, stats, State::kAlive);
}

void PeerHealth::on_send_error(NodeId peer) {
  auto it = peers_.find(peer);
  if (it == peers_.end()) return;
  PeerStats& stats = it->second;
  ++stats.send_errors;
  ++total_send_errors_;
  ++stats.consecutive_send_errors;
  if (stats.state == State::kAlive &&
      stats.consecutive_send_errors >= config_.send_error_threshold) {
    transition(peer, stats, State::kSuspect);
  }
}

void PeerHealth::on_send_ok(NodeId peer) {
  auto it = peers_.find(peer);
  if (it == peers_.end()) return;
  it->second.consecutive_send_errors = 0;
}

bool PeerHealth::suspected(NodeId peer) const {
  auto it = peers_.find(peer);
  return it != peers_.end() && it->second.state == State::kSuspect;
}

std::vector<NodeId> PeerHealth::suspects() const {
  std::vector<NodeId> out;
  for (const auto& [id, stats] : peers_) {
    if (stats.state == State::kSuspect) out.push_back(id);
  }
  return out;
}

const PeerHealth::PeerStats* PeerHealth::peer(NodeId id) const {
  auto it = peers_.find(id);
  return it == peers_.end() ? nullptr : &it->second;
}

void PeerHealth::check_silence() {
  const des::SimTime now = env_.now();
  for (auto& [id, stats] : peers_) {
    if (stats.state != State::kAlive) continue;
    if (now - stats.last_heard >= config_.silence_timeout) {
      transition(id, stats, State::kSuspect);
    }
  }
}

void PeerHealth::poll_gauges(obs::GaugeVisitor& visitor) const {
  std::int64_t suspects = 0;
  for (const auto& [id, stats] : peers_) {
    if (stats.state == State::kSuspect) ++suspects;
  }
  visitor.gauge("health_suspects", suspects);
  visitor.gauge("health_suspect_transitions",
                static_cast<std::int64_t>(suspect_transitions_));
  visitor.gauge("health_alive_transitions",
                static_cast<std::int64_t>(alive_transitions_));
  visitor.gauge("health_send_errors",
                static_cast<std::int64_t>(total_send_errors_));
}

void PeerHealth::transition(NodeId id, PeerStats& stats, State to) {
  stats.state = to;
  if (to == State::kSuspect) {
    ++suspect_transitions_;
    if (on_suspect_) on_suspect_(id);
  } else {
    ++alive_transitions_;
    if (on_alive_) on_alive_(id);
  }
}

}  // namespace byzcast::net
