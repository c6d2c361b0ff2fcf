// Random-waypoint mobility: pick a uniform destination, travel at a
// uniform speed from [min_speed, max_speed], pause, repeat. The standard
// MANET evaluation model and the one SWANS ships.
#pragma once

#include "des/rng.h"
#include "mobility/mobility_model.h"

namespace byzcast::mobility {

struct RandomWaypointConfig {
  geo::Area area;
  double min_speed_mps = 0.5;   ///< metres per second; must be > 0
  double max_speed_mps = 2.0;   ///< >= min_speed_mps
  des::SimDuration pause = 0;   ///< dwell time at each waypoint
};

class RandomWaypoint final : public MobilityModel {
 public:
  /// Starts at `start`; leg endpoints/speeds come from `rng` (owned).
  /// Throws std::invalid_argument on bad speeds.
  RandomWaypoint(geo::Vec2 start, RandomWaypointConfig config, des::Rng rng);

  geo::Vec2 position_at(des::SimTime t) override;
  [[nodiscard]] double max_speed_mps() const override {
    return config_.max_speed_mps;
  }

 private:
  void begin_leg(des::SimTime now);

  RandomWaypointConfig config_;
  des::Rng rng_;
  // Current leg: travel from origin_ (departing at depart_) to target_,
  // arriving at arrive_; then pause until arrive_ + pause.
  geo::Vec2 origin_;
  geo::Vec2 target_;
  des::SimTime depart_ = 0;
  des::SimTime arrive_ = 0;
};

}  // namespace byzcast::mobility
