// Protocol timing and feature knobs.
//
// The timing names follow the paper's §3.4 analysis: gossip_period is the
// "gossip timeout" (time between consecutive gossip packets),
// kRequestTimeout the gap between hearing a gossip for a missing message
// and requesting it, kReplySuppress bounds the "rebroadcast timeout" from
// below. max_timeout() is the analysis quantity
//   gossip_timeout + request_timeout + rebroadcast_timeout + 3β
// that bounds per-hop recovery latency (Lemma 3.3). Only the gossip
// period, which E4 varies, is a field.
//
// The three `ablation` booleans gate the design choices the benches in
// EXPERIMENTS.md E9/E10 sweep.
#pragma once

#include <cstdint>

#include "core/gossip.h"
#include "des/time.h"
#include "fd/mute_fd.h"
#include "fd/trust_fd.h"
#include "fd/verbose_fd.h"
#include "overlay/overlay.h"
#include "sync/sync_config.h"

namespace byzcast::core {

inline constexpr des::SimDuration kRequestTimeout = des::millis(150);
inline constexpr des::SimDuration kReplySuppress = des::millis(100);
/// β: one-hop latency the analysis assumes; the medium sets the real one.
inline constexpr des::SimDuration kBeta = des::millis(5);

/// How message buffers are reclaimed (paper §3.2.2: "Messages can be
/// purged either after a timeout, or by using a stability detection
/// mechanism. In this work, we have chosen to use timeout based purging
/// due to its simplicity." — both are implemented here; kStability is
/// the extension the paper names but does not build).
enum class PurgePolicy : std::uint8_t {
  kTimeout,    ///< drop after purge_timeout (the paper's choice)
  kStability,  ///< drop once every neighbour reports the message stable,
               ///< with purge_timeout kept as the hard upper bound
};

struct ProtocolConfig {
  // --- gossip & recovery timing ------------------------------------------
  des::SimDuration gossip_period = des::millis(500);
  des::SimDuration purge_timeout = des::seconds(60);
  PurgePolicy purge_policy = PurgePolicy::kTimeout;
  /// kStability: minimum age before a stable message may be dropped
  /// (covers in-flight requests from neighbours that just turned stable).
  des::SimDuration stability_min_age = des::seconds(3);
  GossipQueueConfig gossip_queue{};

  // --- overlay maintenance -------------------------------------------------
  des::SimDuration hello_period = des::seconds(1);
  des::SimDuration neighbor_timeout = des::seconds(3);
  overlay::OverlayKind overlay_kind = overlay::OverlayKind::kCds;

  // --- failure detectors ----------------------------------------------------
  fd::MuteFdConfig mute{};
  fd::VerboseFdConfig verbose{};
  fd::TrustFdConfig trust{};

  // --- ablation switches (E9/E10) -------------------------------------------
  bool recovery_enabled = true;   ///< gossip-driven REQUEST/FIND path
  std::uint8_t find_ttl = 2;      ///< TTL of FIND_MISSING_MSG (paper: 2)
  bool trust_propagation = true;  ///< neighbour suspicion reports in HELLOs
  /// Anti-entropy extension: when a neighbour's advertised stability
  /// prefix lags ours, re-gossip the messages it is missing (bounded per
  /// tick). This is what lets a node that rejoins after a partition catch
  /// up once the normal lazycast repeats are exhausted (§3.4 footnote 7's
  /// intermittently-connected regime).
  bool anti_entropy = true;

  /// Batched anti-entropy range-sync sessions (DESIGN.md §11); disabled
  /// by default.
  sync::SyncConfig sync{};

  /// Lemma 3.3's per-hop recovery bound.
  [[nodiscard]] des::SimDuration max_timeout() const {
    return gossip_period + kRequestTimeout + kReplySuppress + 3 * kBeta;
  }
};

}  // namespace byzcast::core
