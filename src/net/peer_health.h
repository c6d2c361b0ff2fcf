// Per-peer liveness accounting for the live transport path
// (DESIGN.md §14).
//
// The protocol's failure detectors (fd/) reason about *protocol*
// misbehaviour — muteness against expectations, verbosity, bad
// signatures. On a real network a peer can also fail below the protocol:
// its process dies, its link saturates, our sends to it start erroring.
// PeerHealth tracks that transport-level evidence per peer — time since
// we last heard a frame, consecutive send errors — and runs a two-state
// alive/suspect machine over it. Transitions fire callbacks, which
// byzcastd wires into the existing TrustFd (a silent peer earns a kMute
// suspicion), so transport-level failures flow into the same
// overlay-trust machinery the paper's detectors feed.
//
// Like every component above net::Env, the tracker is backend-agnostic:
// tests run it on the DES with virtual time, byzcastd runs it on the
// IoLoop with wall time. It draws no rng and owns one periodic timer.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <vector>

#include "net/env.h"
#include "net/timer.h"
#include "obs/gauge.h"
#include "util/node_id.h"

namespace byzcast::net {

struct PeerHealthConfig {
  /// Silence (no frames from the peer) before it turns suspect. Should
  /// comfortably exceed the fleet's HELLO period: a healthy peer beacons
  /// at least that often.
  des::SimDuration silence_timeout = des::seconds(5);
  /// Consecutive send errors to a peer before it turns suspect even if
  /// frames are still arriving (asymmetric congestion).
  int send_error_threshold = 8;
};

class PeerHealth : public obs::GaugeSource {
 public:
  enum class State : std::uint8_t { kAlive, kSuspect };
  using TransitionCallback = std::function<void(NodeId)>;

  struct PeerStats {
    State state = State::kAlive;
    des::SimTime last_heard = 0;     ///< env time of the last frame
    std::uint64_t frames = 0;        ///< frames heard from the peer
    std::uint64_t send_errors = 0;   ///< cumulative send errors toward it
    int consecutive_send_errors = 0;
  };

  /// Tracks `peers` (our id excluded by the caller). Peers start alive
  /// with last_heard = start() time, so a freshly booted node grants
  /// every peer one silence_timeout of grace before suspecting anyone.
  PeerHealth(Env& env, std::vector<NodeId> peers, PeerHealthConfig config);

  /// Arms the periodic silence sweep and stamps the grace period.
  void start();
  void stop() { check_timer_.stop(); }

  // --- evidence feeds (wired to the transport by the owner) ---------------
  /// A frame from `peer` arrived: refreshes last_heard, clears send-error
  /// streaks, and revives a suspect.
  void on_frame_from(NodeId peer);
  /// A send toward `peer` failed permanently (retries exhausted).
  void on_send_error(NodeId peer);
  /// A send toward `peer` succeeded (breaks the consecutive-error streak).
  void on_send_ok(NodeId peer);

  // --- state ---------------------------------------------------------------
  [[nodiscard]] bool suspected(NodeId peer) const;
  [[nodiscard]] std::vector<NodeId> suspects() const;
  [[nodiscard]] const PeerStats* peer(NodeId id) const;

  /// Edge-triggered: fired once per alive->suspect / suspect->alive edge.
  void set_on_suspect(TransitionCallback cb) { on_suspect_ = std::move(cb); }
  void set_on_alive(TransitionCallback cb) { on_alive_ = std::move(cb); }

  [[nodiscard]] std::uint64_t suspect_transitions() const {
    return suspect_transitions_;
  }
  [[nodiscard]] std::uint64_t alive_transitions() const {
    return alive_transitions_;
  }
  [[nodiscard]] std::uint64_t total_send_errors() const {
    return total_send_errors_;
  }

  /// Flight-recorder row: current suspect count plus the cumulative
  /// transition/error counters, so `--report` timelines show *when*
  /// peers fell suspect, not just the final tallies.
  void poll_gauges(obs::GaugeVisitor& visitor) const override;

 private:
  void check_silence();
  void transition(NodeId id, PeerStats& stats, State to);

  /// Sweep period of the silence check.
  static constexpr des::SimDuration kCheckPeriod = des::seconds(1);

  Env& env_;
  PeerHealthConfig config_;
  std::map<NodeId, PeerStats> peers_;
  TransitionCallback on_suspect_;
  TransitionCallback on_alive_;
  std::uint64_t suspect_transitions_ = 0;
  std::uint64_t alive_transitions_ = 0;
  std::uint64_t total_send_errors_ = 0;
  net::PeriodicTimer check_timer_;
};

}  // namespace byzcast::net
