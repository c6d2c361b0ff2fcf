#include "radio/medium.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "obs/profiler.h"
#include "radio/radio.h"

namespace byzcast::radio {

Medium::Medium(des::Simulator& sim,
               std::unique_ptr<PropagationModel> propagation,
               MediumConfig config, stats::Metrics* metrics)
    : sim_(sim),
      propagation_(std::move(propagation)),
      config_(config),
      metrics_(metrics),
      rng_(sim.split_rng()) {
  if (!propagation_) {
    throw std::invalid_argument("Medium: propagation model required");
  }
  if (config_.bitrate_bps <= 0) {
    throw std::invalid_argument("Medium: bitrate must be positive");
  }
}

void Medium::register_radio(Radio& radio) {
  NodeId id = radio.local_id();
  if (id >= radios_.size()) {
    radios_.resize(id + 1, nullptr);
    attached_.resize(id + 1, true);
    tx_busy_until_.resize(id + 1, 0);
    tx_intervals_.resize(id + 1);
    receptions_.resize(id + 1);
  }
  if (radios_[id] != nullptr) {
    throw std::invalid_argument("Medium: node id registered twice");
  }
  radios_[id] = &radio;
  max_reach_ = std::max(max_reach_, propagation_->max_range(radio.range()));
  max_speed_ = std::max(max_speed_, radio.max_speed_mps());
  grid_.reset();  // the next spatial query indexes the newcomer too
}

des::SimDuration Medium::airtime(std::size_t wire_bytes) const {
  double seconds = static_cast<double>(wire_bytes) * 8.0 / config_.bitrate_bps;
  return std::max<des::SimDuration>(1, des::from_seconds(seconds));
}

geo::Vec2 Medium::position_of(NodeId id) const {
  if (id >= radios_.size() || radios_[id] == nullptr) {
    throw std::out_of_range("Medium::position_of: unknown node");
  }
  return radios_[id]->position_at(sim_.now());
}

double Medium::stale_margin() const {
  // One extra millisecond of travel: random-waypoint legs last whole
  // microseconds, so each can end up to 1 µs early and a node may gain
  // that much travel per leg it finishes within one refresh.
  return max_speed_ * des::to_seconds(kGridRefresh + des::millis(1)) + 1e-9;
}

void Medium::refresh_grid(des::SimTime now) const {
  if (grid_.has_value() && now - grid_time_ < kGridRefresh) return;
  std::vector<geo::Vec2> positions;
  positions.reserve(radios_.size());
  grid_ids_.clear();
  for (NodeId id = 0; id < radios_.size(); ++id) {
    if (radios_[id] == nullptr) continue;
    positions.push_back(radios_[id]->position_at(now));
    grid_ids_.push_back(id);
  }
  grid_.emplace(std::move(positions),
                std::max(1.0, max_reach_ + stale_margin()));
  grid_time_ = now;
}

void Medium::gather_candidates(geo::Vec2 center, double radius,
                               std::vector<NodeId>& out) const {
  refresh_grid(sim_.now());
  grid_->query_cells(center, radius + stale_margin(), cell_scratch_);
  out.clear();
  for (std::size_t item : cell_scratch_) out.push_back(grid_ids_[item]);
  std::sort(out.begin(), out.end());
}

std::vector<NodeId> Medium::neighbors_of(NodeId id, double range) const {
  geo::Vec2 center = position_of(id);
  std::vector<NodeId> out;
  gather_candidates(center, range, candidate_scratch_);
  for (NodeId other : candidate_scratch_) {
    if (other != id &&
        geo::distance(center, radios_[other]->position_at(sim_.now())) <=
            range) {
      out.push_back(other);
    }
  }
  return out;
}

std::uint32_t Medium::alloc_reception(des::SimTime start, des::SimTime end) {
  std::uint32_t idx;
  if (!free_receptions_.empty()) {
    idx = free_receptions_.back();
    free_receptions_.pop_back();
  } else {
    idx = static_cast<std::uint32_t>(reception_pool_.size());
    reception_pool_.emplace_back();
  }
  reception_pool_[idx] = Reception{start, end, /*corrupted=*/false, /*refs=*/2};
  return idx;
}

void Medium::release_reception(std::uint32_t idx) {
  if (--reception_pool_[idx].refs == 0) free_receptions_.push_back(idx);
}

void Medium::prune(NodeId id, des::SimTime now) {
  auto& rx = receptions_[id];
  while (!rx.empty() && reception_pool_[rx.front()].end < now) {
    release_reception(rx.front());
    rx.pop_front();
  }
  auto& tx = tx_intervals_[id];
  while (!tx.empty() && tx.front().end < now) tx.pop_front();
}

void Medium::set_attached(NodeId id, bool attached) {
  if (id >= radios_.size() || radios_[id] == nullptr) {
    throw std::out_of_range("Medium::set_attached: unknown node");
  }
  attached_[id] = attached;
}

bool Medium::attached(NodeId id) const {
  return id < radios_.size() && radios_[id] != nullptr && attached_[id];
}

void Medium::transmit(NodeId sender, util::Buffer payload) {
  if (sender >= radios_.size() || radios_[sender] == nullptr) {
    throw std::out_of_range("Medium::transmit: unknown sender");
  }
  if (!attached_[sender]) return;  // powered off: the frame never airs
  Frame frame{sender, std::move(payload)};
  const std::size_t wire = frame.wire_size();

  des::SimTime earliest = sim_.now();
  if (config_.tx_jitter_max > 0) {
    earliest += rng_.next_below(config_.tx_jitter_max + 1);
  }
  // Half-duplex queueing: a node's transmissions are serialized.
  des::SimTime t_start = std::max(earliest, tx_busy_until_[sender]);
  if (config_.carrier_sense) {
    // Defer until our whole frame fits between the transmissions already
    // planned by nodes we can hear (the simulation knows queued
    // transmissions; live hardware senses them as carrier — this models
    // the ideal outcome of that contention among mutually-in-range
    // stations; hidden terminals still collide). Loop until a slot fits.
    const des::SimDuration air = airtime(wire);
    geo::Vec2 my_pos = radios_[sender]->position_at(sim_.now());
    // Widest radius any *other* node could hear us across, so the cell
    // walk covers every station whose queued frames we must defer to.
    gather_candidates(my_pos, max_reach_, candidate_scratch_);
    bool moved = true;
    while (moved) {
      moved = false;
      for (NodeId other : candidate_scratch_) {
        if (other == sender) continue;
        double reach = propagation_->max_range(radios_[other]->range());
        if (geo::distance(my_pos,
                          radios_[other]->position_at(sim_.now())) > reach) {
          continue;
        }
        prune(other, sim_.now());
        for (const Interval& tx : tx_intervals_[other]) {
          if (tx.start < t_start + air && t_start < tx.end) {
            t_start = tx.end + config_.carrier_sense_gap;
            moved = true;
          }
        }
      }
    }
    t_start = std::max(t_start, tx_busy_until_[sender]);
  }
  des::SimTime t_end = t_start + airtime(wire);
  tx_busy_until_[sender] = t_end;
  tx_intervals_[sender].push_back({t_start, t_end});

  if (metrics_ != nullptr) metrics_->on_frame_sent(wire);

  sim_.schedule_at(t_start, [this, frame = std::move(frame), t_start, t_end]() {
    begin_transmission(frame, t_start, t_end);
  });
}

void Medium::begin_transmission(Frame frame, des::SimTime t_start,
                                des::SimTime t_end) {
  BYZCAST_PROFILE(obs::ProfileCategory::kMediumFanout);
  const NodeId sender = frame.sender;
  if (!attached_[sender]) return;  // radio died between queueing and airtime
  Radio* tx_radio = radios_[sender];
  const geo::Vec2 tx_pos = tx_radio->position_at(t_start);
  const double nominal = tx_radio->range();
  const double reach = propagation_->max_range(nominal);

  // The per-receiver body below must run in ascending NodeId order over
  // exactly the in-range receivers: every RNG draw's position in the
  // stream depends on it, and the golden determinism hashes pin that
  // stream. It runs over a sorted candidate superset and relies on the
  // `dist > reach` test to discard the extras.
  auto offer = [&](NodeId rx) {
    if (rx == sender || !attached_[rx]) return;
    geo::Vec2 rx_pos = radios_[rx]->position_at(t_start);
    if (wall_x_ && (tx_pos.x < *wall_x_) != (rx_pos.x < *wall_x_)) {
      return;  // area split: the wall blocks this link
    }
    double dist = geo::distance(tx_pos, rx_pos);
    if (dist > reach) return;
    // `rx` is a live in-range candidate: from here on, exactly one of
    // the dropped / collided / delivered outcomes fires for it, so
    // offered == dropped + collided + delivered (counts and bytes) — the
    // conservation identity conservation_test asserts.
    const std::size_t wire = frame.wire_size();
    if (metrics_ != nullptr) metrics_->on_frame_offered(wire);
    if (!propagation_->delivered(dist, nominal, rng_) ||
        rng_.chance(config_.base_loss_prob)) {
      if (metrics_ != nullptr) metrics_->on_frame_dropped(wire);
      return;
    }
    prune(rx, t_start);
    // Half-duplex: receiver busy transmitting during any part of the
    // frame loses it.
    for (const Interval& tx : tx_intervals_[rx]) {
      if (tx.start < t_end && t_start < tx.end) {
        if (metrics_ != nullptr) metrics_->on_frame_dropped(wire);
        return;
      }
    }
    const std::uint32_t reception = alloc_reception(t_start, t_end);
    if (config_.collisions_enabled) {
      for (std::uint32_t other_idx : receptions_[rx]) {
        Reception& other = reception_pool_[other_idx];
        if (other.start < t_end && t_start < other.end) {
          other.corrupted = true;
          reception_pool_[reception].corrupted = true;
        }
      }
    }
    receptions_[rx].push_back(reception);
    // Copying the Frame into the lambda shares the payload buffer — the
    // whole fan-out performs zero per-receiver byte copies.
    sim_.schedule_at(
        t_end + config_.latency, [this, rx, reception, frame]() {
          // Each corrupted reception is counted exactly once, here.
          const bool corrupted = reception_pool_[reception].corrupted;
          release_reception(reception);
          if (corrupted) {
            if (metrics_ != nullptr) metrics_->on_frame_collided(frame.wire_size());
            return;
          }
          if (!attached_[rx]) {  // detached while the frame was in flight
            if (metrics_ != nullptr) metrics_->on_frame_dropped(frame.wire_size());
            return;
          }
          if (metrics_ != nullptr) {
            metrics_->on_frame_delivered(frame.wire_size());
          }
          radios_[rx]->deliver(frame);
        });
  };

  gather_candidates(tx_pos, reach, candidate_scratch_);
  for (NodeId rx : candidate_scratch_) offer(rx);
}

}  // namespace byzcast::radio
