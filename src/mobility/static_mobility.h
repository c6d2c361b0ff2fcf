// Node that never moves.
#pragma once

#include "mobility/mobility_model.h"

namespace byzcast::mobility {

class StaticMobility final : public MobilityModel {
 public:
  explicit StaticMobility(geo::Vec2 position) : position_(position) {}
  geo::Vec2 position_at(des::SimTime /*t*/) override { return position_; }
  [[nodiscard]] double max_speed_mps() const override { return 0; }

 private:
  geo::Vec2 position_;
};

}  // namespace byzcast::mobility
