// Per-node mobility (the SWANS mobility substitute, DESIGN.md S4).
//
// Each node owns one MobilityModel instance; the medium samples
// `position_at(now)` whenever it needs the node's location. Models are
// analytic (position is a pure function of time plus internal leg state
// advanced lazily), so there is no per-tick update event and queries at
// any time are exact.
#pragma once

#include "des/time.h"
#include "geo/vec2.h"

namespace byzcast::mobility {

class MobilityModel {
 public:
  virtual ~MobilityModel() = default;

  /// Position at simulated time t. t must be non-decreasing across calls
  /// (the simulator clock is monotonic); models may advance internal leg
  /// state when queried.
  virtual geo::Vec2 position_at(des::SimTime t) = 0;

  /// Upper bound on the node's speed: over any interval dt the sampled
  /// position moves at most max_speed_mps() * dt (up to rounding). The
  /// medium's spatial grid widens its queries by this much per second
  /// of grid staleness.
  [[nodiscard]] virtual double max_speed_mps() const = 0;
};

}  // namespace byzcast::mobility
