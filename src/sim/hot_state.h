// Flat SoA per-node hot state, owned by sim::Network.
//
// The builder mirrors the per-node facts the harness touches on hot paths
// — sampled positions, nominal radio ranges, liveness flags — into
// parallel flat arrays instead of reaching through node objects. The
// ground-truth analyses (overlay domination and backbone connectivity,
// Lemmas 3.5/3.9) run entirely on these arrays with grid-cell queries and
// bitset membership tests, which is what keeps them O(n * density) and
// lets a 100k-node run finish its end-of-run analysis. Analysis scratch
// (BFS stack, visited flags) is arena-allocated and bulk-reset per call,
// so repeated analyses and sweep replicas reuse the same memory.
#pragma once

#include <vector>

#include "geo/vec2.h"
#include "util/arena.h"
#include "util/bitset.h"
#include "util/node_id.h"

namespace byzcast::sim {

struct HotState {
  /// Position per node, as of the owner's last sample_positions().
  std::vector<geo::Vec2> positions;
  /// Nominal radio range per node.
  std::vector<double> ranges;
  /// False while crashed or departed (radio detach is tracked by the
  /// medium, not here).
  util::DynamicBitset alive;
  /// Permanently gone (kLeave) — recovery refuses these.
  util::DynamicBitset departed;

  /// Scratch: membership flags for the analysis below. Contents are only
  /// valid during one call.
  util::DynamicBitset scratch_member;
  /// Scratch allocations for one analysis call; reset on entry.
  util::Arena arena;
};

/// True when `members` form a connected unit-disk graph at `range` AND
/// every node in `correct` is a member or within `range` of one. Reads
/// `hot.positions` (the caller samples them first) and uses
/// `hot.scratch_member`/`hot.arena` as scratch. False when `members` is
/// empty.
bool overlay_connected_and_dominating(HotState& hot,
                                      const std::vector<NodeId>& correct,
                                      const std::vector<NodeId>& members,
                                      double range);

}  // namespace byzcast::sim
