#include "sim/hot_state.h"

#include <cstdint>
#include <utility>

#include "geo/grid_index.h"

namespace byzcast::sim {

bool overlay_connected_and_dominating(HotState& hot,
                                      const std::vector<NodeId>& correct,
                                      const std::vector<NodeId>& members,
                                      double range) {
  if (members.empty()) return false;
  hot.arena.reset();
  hot.scratch_member.assign(hot.positions.size(), false);
  for (NodeId m : members) hot.scratch_member.set(m);

  // Member positions into the grid; item k is members[k].
  const std::size_t m = members.size();
  std::vector<geo::Vec2> member_pos(m);
  for (std::size_t k = 0; k < m; ++k) {
    member_pos[k] = hot.positions[members[k]];
  }
  const geo::GridIndex grid(std::move(member_pos), range);

  // Domination: every correct node is a member or within range of one.
  std::vector<std::size_t> hits;
  for (NodeId node : correct) {
    if (hot.scratch_member.test(node)) continue;
    grid.query(hot.positions[node], range, hits);
    if (hits.empty()) return false;
  }

  // Connectivity of the member graph: BFS where each hop's neighbours
  // come from a cell query instead of a materialized adjacency list.
  auto* seen = hot.arena.alloc_array<std::uint8_t>(m);
  auto* stack = hot.arena.alloc_array<std::uint32_t>(m);
  std::size_t sp = 0;
  std::size_t reached = 1;
  seen[0] = 1;
  stack[sp++] = 0;
  while (sp > 0) {
    const std::size_t u = stack[--sp];
    grid.query(grid.position(u), range, hits);
    for (std::size_t v : hits) {
      if (seen[v] == 0) {
        seen[v] = 1;
        ++reached;
        stack[sp++] = static_cast<std::uint32_t>(v);
      }
    }
  }
  return reached == m;
}

}  // namespace byzcast::sim
