#include <gtest/gtest.h>

#include <algorithm>

#include "des/rng.h"
#include "mobility/random_walk.h"
#include "mobility/random_waypoint.h"
#include "mobility/scripted_mobility.h"
#include "mobility/static_mobility.h"

namespace byzcast::mobility {
namespace {

/// Samples `m` every `step` up to `horizon` and checks that no step moves
/// it further than max_speed_mps() allows — the bound the medium's grid
/// widens its queries by. Returns the largest step seen as a fraction of
/// that allowance, so callers can check the bound is also tight.
double check_speed_bound(MobilityModel& m, des::SimDuration step,
                         des::SimDuration horizon) {
  const double allowed = m.max_speed_mps() * des::to_seconds(step);
  // Waypoint legs last whole microseconds, so one can end up to 1 µs
  // early: allow a microsecond's travel per step on top.
  const double slack = m.max_speed_mps() * 1e-6 + 1e-9;
  double worst = 0;
  geo::Vec2 prev = m.position_at(0);
  for (des::SimTime t = step; t <= horizon; t += step) {
    const geo::Vec2 cur = m.position_at(t);
    const double moved = geo::distance(prev, cur);
    EXPECT_LE(moved, allowed + slack) << "t=" << t;
    worst = std::max(worst, moved);
    prev = cur;
  }
  return allowed > 0 ? worst / allowed : worst;
}

TEST(StaticMobility, NeverMoves) {
  StaticMobility m({3, 4});
  EXPECT_EQ(m.position_at(0), (geo::Vec2{3, 4}));
  EXPECT_EQ(m.position_at(des::seconds(1000)), (geo::Vec2{3, 4}));
  EXPECT_EQ(m.max_speed_mps(), 0.0);
  EXPECT_EQ(check_speed_bound(m, des::millis(10), des::seconds(5)), 0.0);
}

TEST(RandomWaypoint, NeverOutrunsMaxSpeed) {
  RandomWaypointConfig config;
  config.area = {300, 200};
  config.min_speed_mps = 9;
  config.max_speed_mps = 10;
  config.pause = des::millis(200);
  RandomWaypoint m({150, 100}, config, des::Rng(4));
  EXPECT_EQ(m.max_speed_mps(), 10.0);
  EXPECT_GT(check_speed_bound(m, des::millis(10), des::seconds(120)), 0.89);
}

TEST(RandomWalk, ReflectionsNeverOutrunMaxSpeed) {
  // A fast walk in a small box reflects off a wall every few seconds;
  // folding the path back must never add speed.
  RandomWalkConfig config;
  config.area = {40, 25};
  config.speed_mps = 15;
  config.leg_duration = des::seconds(3);
  RandomWalk m({20, 12}, config, des::Rng(8));
  EXPECT_EQ(m.max_speed_mps(), 15.0);
  EXPECT_GT(check_speed_bound(m, des::millis(10), des::seconds(60)), 0.99);
}

TEST(ScriptedMobility, MaxSpeedIsTheFastestLeg) {
  // 5 m/s, then 500 m in 5 s into negative coordinates, then a hold.
  ScriptedMobility m({{0, {0, 0}},
                      {des::seconds(10), {30, 40}},
                      {des::seconds(15), {-270, -360}},
                      {des::seconds(20), {-270, -360}}});
  EXPECT_DOUBLE_EQ(m.max_speed_mps(), 100.0);
  EXPECT_GT(check_speed_bound(m, des::millis(10), des::seconds(25)), 0.99);
}

TEST(RandomWaypoint, RejectsBadSpeeds) {
  RandomWaypointConfig config;
  config.area = {100, 100};
  config.min_speed_mps = 0;
  EXPECT_THROW(RandomWaypoint({0, 0}, config, des::Rng(1)),
               std::invalid_argument);
  config.min_speed_mps = 5;
  config.max_speed_mps = 1;
  EXPECT_THROW(RandomWaypoint({0, 0}, config, des::Rng(1)),
               std::invalid_argument);
}

TEST(RandomWaypoint, StaysInsideArea) {
  RandomWaypointConfig config;
  config.area = {100, 50};
  config.min_speed_mps = 1;
  config.max_speed_mps = 10;
  config.pause = des::millis(100);
  RandomWaypoint m({50, 25}, config, des::Rng(7));
  for (int i = 0; i <= 2000; ++i) {
    geo::Vec2 p = m.position_at(des::millis(50) * i);
    EXPECT_TRUE(config.area.contains(p)) << "at step " << i;
  }
}

TEST(RandomWaypoint, MovesAtBoundedSpeed) {
  RandomWaypointConfig config;
  config.area = {1000, 1000};
  config.min_speed_mps = 2;
  config.max_speed_mps = 4;
  RandomWaypoint m({500, 500}, config, des::Rng(9));
  geo::Vec2 prev = m.position_at(0);
  for (int i = 1; i <= 1000; ++i) {
    geo::Vec2 cur = m.position_at(des::millis(100) * i);
    // 4 m/s over 100 ms = at most 0.4 m (plus epsilon).
    EXPECT_LE(geo::distance(prev, cur), 0.4 + 1e-6);
    prev = cur;
  }
}

TEST(RandomWaypoint, PausesAtWaypoint) {
  RandomWaypointConfig config;
  config.area = {10, 10};
  config.min_speed_mps = 100;  // legs are nearly instant
  config.max_speed_mps = 100;
  config.pause = des::seconds(10);
  RandomWaypoint m({5, 5}, config, des::Rng(3));
  // After the (fast) first leg the node dwells: two samples inside the
  // pause window must be identical.
  geo::Vec2 a = m.position_at(des::seconds(1));
  geo::Vec2 b = m.position_at(des::seconds(2));
  EXPECT_EQ(a, b);
}

TEST(RandomWaypoint, DeterministicForSeed) {
  RandomWaypointConfig config;
  config.area = {100, 100};
  RandomWaypoint m1({50, 50}, config, des::Rng(42));
  RandomWaypoint m2({50, 50}, config, des::Rng(42));
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(m1.position_at(des::seconds(i)), m2.position_at(des::seconds(i)));
  }
}

TEST(RandomWalk, RejectsBadConfig) {
  RandomWalkConfig config;
  config.area = {100, 100};
  config.speed_mps = 0;
  EXPECT_THROW(RandomWalk({0, 0}, config, des::Rng(1)), std::invalid_argument);
  config.speed_mps = 1;
  config.leg_duration = 0;
  EXPECT_THROW(RandomWalk({0, 0}, config, des::Rng(1)), std::invalid_argument);
}

TEST(RandomWalk, StaysInsideAreaDespiteReflection) {
  RandomWalkConfig config;
  config.area = {50, 30};
  config.speed_mps = 20;  // fast: reflects often
  config.leg_duration = des::seconds(5);
  RandomWalk m({25, 15}, config, des::Rng(21));
  for (int i = 0; i <= 5000; ++i) {
    geo::Vec2 p = m.position_at(des::millis(20) * i);
    EXPECT_GE(p.x, 0.0);
    EXPECT_LE(p.x, 50.0);
    EXPECT_GE(p.y, 0.0);
    EXPECT_LE(p.y, 30.0);
  }
}

TEST(RandomWalk, ActuallyMoves) {
  RandomWalkConfig config;
  config.area = {1000, 1000};
  config.speed_mps = 5;
  RandomWalk m({500, 500}, config, des::Rng(2));
  geo::Vec2 start = m.position_at(0);
  geo::Vec2 later = m.position_at(des::seconds(5));
  EXPECT_NEAR(geo::distance(start, later), 25.0, 1e-6);
}

}  // namespace
}  // namespace byzcast::mobility
