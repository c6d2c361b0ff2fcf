#include "mobility/scripted_mobility.h"

#include <algorithm>
#include <stdexcept>

namespace byzcast::mobility {

ScriptedMobility::ScriptedMobility(std::vector<Keyframe> keyframes)
    : keyframes_(std::move(keyframes)) {
  if (keyframes_.empty()) {
    throw std::invalid_argument("ScriptedMobility: need >= 1 keyframe");
  }
  for (std::size_t i = 1; i < keyframes_.size(); ++i) {
    const Keyframe& a = keyframes_[i - 1];
    const Keyframe& b = keyframes_[i];
    if (b.at <= a.at) {
      throw std::invalid_argument(
          "ScriptedMobility: keyframes must be strictly increasing in time");
    }
    max_speed_mps_ = std::max(max_speed_mps_,
                              geo::distance(a.position, b.position) /
                                  des::to_seconds(b.at - a.at));
  }
}

geo::Vec2 ScriptedMobility::position_at(des::SimTime t) {
  if (t <= keyframes_.front().at) return keyframes_.front().position;
  if (t >= keyframes_.back().at) return keyframes_.back().position;
  for (std::size_t i = 1; i < keyframes_.size(); ++i) {
    if (t <= keyframes_[i].at) {
      const Keyframe& a = keyframes_[i - 1];
      const Keyframe& b = keyframes_[i];
      double frac = static_cast<double>(t - a.at) /
                    static_cast<double>(b.at - a.at);
      return a.position + (b.position - a.position) * frac;
    }
  }
  return keyframes_.back().position;  // unreachable
}

}  // namespace byzcast::mobility
