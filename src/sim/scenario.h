// Scenario description: everything that defines one simulated run.
//
// A (ScenarioConfig, seed) pair fully determines a run (DESIGN.md §6);
// benches sweep one field at a time and EXPERIMENTS.md records the values
// used per experiment.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "byz/adversary.h"
#include "core/config.h"
#include "des/time.h"
#include "geo/vec2.h"
#include "net/impairment.h"
#include "obs/msg_trace.h"
#include "radio/medium.h"
#include "sim/fault.h"

namespace byzcast::sim {

enum class ProtocolKind { kByzcast, kFlooding, kMultiOverlay };
enum class MobilityKind { kStatic, kRandomWaypoint, kRandomWalk };
enum class PlacementKind { kUniformConnected, kGrid, kChain, kClustered, kRing };

const char* protocol_kind_name(ProtocolKind kind);
ProtocolKind protocol_kind_from_name(const std::string& name);

struct ScenarioConfig {
  std::uint64_t seed = 1;

  // --- topology -------------------------------------------------------------
  std::size_t n = 50;
  geo::Area area{500, 500};
  double tx_range = 120;
  PlacementKind placement = PlacementKind::kUniformConnected;
  double chain_spacing = 80;          ///< for PlacementKind::kChain

  // --- mobility ---------------------------------------------------------------
  MobilityKind mobility = MobilityKind::kStatic;
  double min_speed_mps = 0.5;
  double max_speed_mps = 2.0;
  des::SimDuration pause = des::seconds(2);

  // --- radio ------------------------------------------------------------------
  radio::MediumConfig medium{};
  bool realistic_radio = false;  ///< LogDistanceShadowing instead of UnitDisk

  // --- protocol under test ------------------------------------------------------
  ProtocolKind protocol = ProtocolKind::kByzcast;
  core::ProtocolConfig protocol_config{};
  int multi_overlay_count = 2;  ///< k = f+1 for the multi-overlay baseline

  // --- adversaries ----------------------------------------------------------------
  /// (kind, how many nodes run it). Assigned to random nodes; senders are
  /// always drawn from the remaining correct nodes.
  std::vector<std::pair<byz::AdversaryKind, std::size_t>> adversaries;
  /// Behaviour knobs shared by all adversaries in this scenario (onset
  /// time for kDelayedMute, forward probability, victim id, ...).
  byz::AdversaryParams adversary_params{};

  // --- faults ---------------------------------------------------------------------
  /// Timed benign-fault events (crashes, outages, partitions, churn)
  /// executed by the FaultInjector. Empty = no injector is constructed at
  /// all, so the run is trace-identical to a pre-fault-subsystem build.
  FaultSchedule fault_schedule;

  /// Transport-level message adversary (DESIGN.md §14): every node's
  /// transport is wrapped in a net::ImpairedTransport injecting seeded
  /// per-sender drop/duplicate/reorder/delay/corrupt — loss independent
  /// of node faults and orthogonal to byz::Adversary. Inert by default:
  /// when !impairment.any() no decorator is constructed and the run is
  /// event-for-event identical to a pre-impairment build (golden hashes).
  net::ImpairmentConfig impairment;

  /// Asymmetric per-(receiver, sender) impairment rules layered on top
  /// of `impairment` (A hears B but not vice versa). Inert by default;
  /// like `impairment`, an empty matrix constructs nothing.
  net::ImpairmentMatrix impairment_matrix;

  // --- workload --------------------------------------------------------------------
  std::size_t num_broadcasts = 20;
  des::SimDuration broadcast_interval = des::millis(500);
  std::size_t payload_bytes = 256;
  std::size_t senders = 1;  ///< distinct correct originators (round-robin)
  /// Record protocol events (obs/msg_trace.h) — per-message lifecycle
  /// stations and node-scoped suspicion/overlay/sync events — for every
  /// byzcast node into one fleet-wide recorder. Off by default; purely
  /// passive when on (no timers, no rng), so trace-on runs stay
  /// event-identical.
  bool enable_msg_trace = false;
  obs::MsgTraceConfig msg_trace;
  /// Sim-time sampling interval for the obs::Timeline flight recorder;
  /// 0 (default) = no Timeline is constructed at all, so — like the empty
  /// fault schedule above — runs without telemetry stay event-for-event
  /// identical to pre-obs builds.
  des::SimDuration telemetry_interval = 0;
  des::SimDuration warmup = des::seconds(6);   ///< overlay stabilization
  des::SimDuration cooldown = des::seconds(12);  ///< recovery tail

  /// Total Byzantine node count this config requests.
  [[nodiscard]] std::size_t byzantine_count() const {
    std::size_t total = 0;
    for (const auto& [kind, count] : adversaries) total += count;
    return total;
  }
};

}  // namespace byzcast::sim
