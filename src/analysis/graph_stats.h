// Topology and overlay-quality analyses (harness-side, DESIGN.md S18).
//
// Ground-truth graph metrics the benches and inspector report alongside
// protocol results: degree statistics, hop diameter, component counts,
// the connected-dominating-set check behind every overlay-health verdict
// (Lemmas 3.5 / 3.9), and the overlay quality report — how big the
// elected backbone is and how much path stretch routing through it costs
// relative to shortest paths in the full graph. Protocol nodes never see
// any of this.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "util/node_id.h"

namespace byzcast::analysis {

using Adjacency = std::vector<std::vector<std::size_t>>;

struct DegreeStats {
  std::size_t min = 0;
  std::size_t max = 0;
  double mean = 0;
};

DegreeStats degree_stats(const Adjacency& adj);

/// Number of connected components (0 for the empty graph).
std::size_t component_count(const Adjacency& adj);

/// Hop eccentricity diameter of the graph; 0 for empty/singleton,
/// SIZE_MAX when disconnected.
std::size_t hop_diameter(const Adjacency& adj);

/// All-hops BFS from `source`; unreachable nodes get SIZE_MAX.
std::vector<std::size_t> hop_distances(const Adjacency& adj,
                                       std::size_t source);

/// The two halves of "is this member set a connected dominating set?".
struct CdsCheck {
  /// Every vertex is a member or adjacent to one (true for the empty
  /// graph).
  bool dominating = false;
  /// The members are non-empty and connected in the subgraph they induce.
  bool backbone_connected = false;
};

/// The one connected-dominating-set predicate: `member[v]` != 0 marks
/// vertex v as a backbone member, and `member` has one entry per vertex
/// of `adj`. O(vertices + edges).
CdsCheck check_cds(const Adjacency& adj,
                   const std::vector<std::uint8_t>& member);

struct OverlayReport {
  std::size_t backbone_size = 0;  ///< overlay members
  bool dominating = false;        ///< every node in/adjacent to the backbone
  bool backbone_connected = false;
  /// Mean over connected node pairs of (path length routed via the
  /// backbone) / (shortest path length). 1.0 = no stretch; 0 when not
  /// computable (backbone unusable).
  double mean_stretch = 0;
};

/// Evaluates `backbone` (indices into adj) as a dissemination overlay:
/// check_cds, then the stretch pass when the backbone is a CDS. Backbone
/// routing: every hop except the first and last must be a backbone
/// member — the path DATA actually takes when only overlay nodes
/// forward. All-false for the empty graph; throws std::out_of_range for
/// a backbone index past the last vertex.
OverlayReport evaluate_overlay(const Adjacency& adj,
                               const std::vector<NodeId>& backbone);

}  // namespace byzcast::analysis
