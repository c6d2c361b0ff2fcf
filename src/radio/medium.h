// The shared wireless channel (DESIGN.md S5).
//
// Models what matters to the broadcast protocol, per the paper's model
// section: omni-directional transmission received within a disk (or a
// fading band, see propagation.h), message latency, random losses, and
// collisions — "if two nodes p and q transmit a message at the same time,
// then ... r will not receive either message".
//
// Timeline of one send:
//   transmit(t)  --jitter+queueing-->  t_start  --airtime-->  t_end
//   deliveries fire at t_end + latency at every receiver that (a) is in
//   range at t_start, (b) passes the propagation/loss draws, (c) was not
//   itself transmitting during [t_start, t_end] (half-duplex), and (d) had
//   no overlapping reception (collision).
//
// The random pre-transmission jitter stands in for CSMA backoff: it
// de-synchronizes the "every neighbour re-forwards at once" bursts that
// flooding produces, exactly the role the MAC plays in SWANS.
//
// Fan-out is spatially sharded: a transmission only walks the radios in
// the grid cells around the sender, so its cost is O(local density), not
// O(n). The grid (geo::GridIndex, fitted to wherever the radios are) is a
// cache over mobility positions, rebuilt lazily once it is kGridRefresh
// old or a radio registers. Every query widens its radius by how far the
// fastest registered mobility model can move in that time
// (MobilityModel::max_speed_mps()), so the cell walk yields a superset of
// the in-range radios. Candidates are sorted by NodeId and pass the exact
// in-range filter, so the RNG draws are those of a scan over every radio.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "des/rng.h"
#include "des/simulator.h"
#include "geo/grid_index.h"
#include "geo/vec2.h"
#include "radio/packet.h"
#include "radio/propagation.h"
#include "stats/metrics.h"
#include "util/node_id.h"

namespace byzcast::radio {

class Radio;

struct MediumConfig {
  double base_loss_prob = 0.0;           ///< iid per-receiver frame loss
  bool collisions_enabled = true;
  /// Random delay before each transmission (CSMA backoff stand-in). Must
  /// be large relative to frame airtime (~1.5 ms at 2 Mb/s / 380 B) or
  /// neighbouring re-forwards collide constantly.
  des::SimDuration tx_jitter_max = des::micros(15000);
  /// Carrier sense: defer a transmission while a frame is arriving at
  /// the transmitter. Removes same-cell collisions entirely (hidden
  /// terminals still collide), at the cost of serialized airtime. Off by
  /// default — the jitter alone matches the paper's collision levels.
  bool carrier_sense = false;
};

class Medium {
 public:
  Medium(des::Simulator& sim, std::unique_ptr<PropagationModel> propagation,
         MediumConfig config, stats::Metrics* metrics = nullptr);

  Medium(const Medium&) = delete;
  Medium& operator=(const Medium&) = delete;

  /// Registers a radio. Ids must be unique; the medium keeps a non-owning
  /// pointer, so the radio must outlive the medium's last event.
  void register_radio(Radio& radio);

  /// Queues a broadcast transmission from `sender`. The payload buffer is
  /// shared by every receiver's delivery — zero per-receiver byte copies.
  void transmit(NodeId sender, util::Buffer payload);

  // --- mid-run dynamics (fault injection) ---------------------------------
  /// Detaches/reattaches a radio. A detached radio transmits nothing and
  /// hears nothing — frames in flight towards it at detach time are lost.
  /// Models a powered-off node or a radio outage; the owning node's code
  /// may well keep running.
  void set_attached(NodeId id, bool attached);
  [[nodiscard]] bool attached(NodeId id) const;
  /// Timed area split: while set, frames whose transmitter and receiver
  /// lie on opposite sides of the vertical line x = `wall_x` are lost.
  void set_partition_wall(double wall_x) { wall_x_ = wall_x; }
  void clear_partition_wall() { wall_x_.reset(); }
  [[nodiscard]] bool partitioned() const { return wall_x_.has_value(); }

  /// Position of a node now (samples its mobility model).
  [[nodiscard]] geo::Vec2 position_of(NodeId id) const;

  /// Ground-truth unit-disk neighbours of `id` within `range` right now.
  /// For tests and idealized baselines only — protocol nodes must learn
  /// neighbours from traffic like the paper's nodes do.
  [[nodiscard]] std::vector<NodeId> neighbors_of(NodeId id,
                                                 double range) const;

  [[nodiscard]] std::size_t radio_count() const { return radios_.size(); }
  [[nodiscard]] const MediumConfig& config() const { return config_; }

 private:
  /// In-flight reception, pool-allocated (see reception_pool_). Alive
  /// while referenced by the receiver's overlap window and the pending
  /// delivery event; the slot is recycled when both release it.
  struct Reception {
    des::SimTime start = 0;
    des::SimTime end = 0;
    bool corrupted = false;
    std::uint8_t refs = 0;
  };
  struct Interval {
    des::SimTime start = 0;
    des::SimTime end = 0;
  };

  void begin_transmission(Frame frame, des::SimTime t_start,
                          des::SimTime t_end);
  [[nodiscard]] des::SimDuration airtime(std::size_t wire_bytes) const;
  void prune(NodeId id, des::SimTime now);

  std::uint32_t alloc_reception(des::SimTime start, des::SimTime end);
  void release_reception(std::uint32_t idx);

  /// Rebuilds the grid from current positions when stale (lazy — called
  /// from the accessors, never scheduled, so the event order is
  /// untouched).
  void refresh_grid(des::SimTime now) const;
  /// Fills `out` with a sorted-ascending superset of every node within
  /// `radius` of `center`. The caller applies the exact distance filter.
  void gather_candidates(geo::Vec2 center, double radius,
                         std::vector<NodeId>& out) const;
  /// How far a radio may have moved since the last grid refresh.
  [[nodiscard]] double stale_margin() const;

  des::Simulator& sim_;
  std::unique_ptr<PropagationModel> propagation_;
  MediumConfig config_;
  stats::Metrics* metrics_;
  des::Rng rng_;

  std::vector<Radio*> radios_;  // indexed by NodeId; nullptr = unregistered
  std::vector<bool> attached_;  // indexed by NodeId; default true
  std::optional<double> wall_x_;
  std::vector<des::SimTime> tx_busy_until_;
  std::vector<std::deque<Interval>> tx_intervals_;

  // Reception pool: receptions_[rx] holds indices into reception_pool_,
  // so the collision hot path allocates nothing once the pool warms up.
  std::vector<Reception> reception_pool_;
  std::vector<std::uint32_t> free_receptions_;
  std::vector<std::deque<std::uint32_t>> receptions_;

  static constexpr double kBitrateBps = 2e6;  ///< 802.11 basic rate
  /// Propagation plus receive processing, after a frame's airtime.
  static constexpr des::SimDuration kLatency = des::micros(5);
  /// Gap left after a sensed-busy channel before transmitting (DIFS-ish).
  static constexpr des::SimDuration kCarrierSenseGap = des::micros(50);
  /// Oldest a grid may get before a query rebuilds it.
  static constexpr des::SimDuration kGridRefresh = des::seconds(1);

  // Spatial shard state. Mutable: the grid is a lazily-maintained cache
  // over mobility positions, refreshed from const accessors too.
  double max_reach_ = 0;  ///< max propagation reach over registered radios
  double max_speed_ = 0;  ///< max mobility speed over registered radios
  mutable std::optional<geo::GridIndex> grid_;  ///< reset on registration
  mutable std::vector<NodeId> grid_ids_;        ///< grid item -> NodeId
  mutable des::SimTime grid_time_ = 0;
  mutable std::vector<std::size_t> cell_scratch_;
  mutable std::vector<NodeId> candidate_scratch_;
};

}  // namespace byzcast::radio
