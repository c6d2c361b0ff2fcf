// Random-walk (random-direction) mobility: travel in a uniformly random
// direction at constant speed for a fixed leg duration, reflecting off the
// area boundary. Produces more uniform spatial density than random
// waypoint (which concentrates nodes in the middle), so experiments can
// separate protocol effects from density artefacts.
#pragma once

#include "des/rng.h"
#include "mobility/mobility_model.h"

namespace byzcast::mobility {

struct RandomWalkConfig {
  geo::Area area;
  double speed_mps = 1.0;                       ///< must be > 0
  des::SimDuration leg_duration = des::seconds(10);  ///< must be > 0
};

class RandomWalk final : public MobilityModel {
 public:
  RandomWalk(geo::Vec2 start, RandomWalkConfig config, des::Rng rng);

  geo::Vec2 position_at(des::SimTime t) override;
  /// Reflections fold the path, so they never add speed.
  [[nodiscard]] double max_speed_mps() const override {
    return config_.speed_mps;
  }

 private:
  void begin_leg(des::SimTime now);
  /// Reflects p off the area boundary (mirror folding), handling
  /// multi-bounce excursions.
  [[nodiscard]] geo::Vec2 reflect(geo::Vec2 p) const;

  RandomWalkConfig config_;
  des::Rng rng_;
  geo::Vec2 origin_;
  geo::Vec2 velocity_;  // metres per second
  des::SimTime depart_ = 0;
  des::SimTime leg_end_ = 0;
};

}  // namespace byzcast::mobility
