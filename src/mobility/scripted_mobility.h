// Deterministic waypoint-script mobility: the node moves linearly between
// (time, position) keyframes and holds the last position afterwards.
//
// For scripted dynamics tests — walk a node out of range at t1, bring it
// back at t2 — where random models cannot stage the exact partition and
// rejoin the paper's weakened connectivity assumption (§3.4 footnote 7)
// talks about.
#pragma once

#include <vector>

#include "mobility/mobility_model.h"

namespace byzcast::mobility {

class ScriptedMobility final : public MobilityModel {
 public:
  struct Keyframe {
    des::SimTime at = 0;
    geo::Vec2 position;
  };

  /// Keyframes must be non-empty and strictly increasing in time.
  /// Position before the first keyframe is the first position.
  explicit ScriptedMobility(std::vector<Keyframe> keyframes);

  geo::Vec2 position_at(des::SimTime t) override;
  /// Speed of the fastest leg between consecutive keyframes.
  [[nodiscard]] double max_speed_mps() const override {
    return max_speed_mps_;
  }

 private:
  std::vector<Keyframe> keyframes_;
  double max_speed_mps_ = 0;
};

}  // namespace byzcast::mobility
