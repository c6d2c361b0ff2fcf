// Uniform-grid spatial index for range queries over node positions.
//
// The wireless medium asks "who is within range r of point p" once per
// transmission. With cell size == query radius, a query touches at most
// nine cells, making the per-transmission cost proportional to the local
// node density instead of n.
//
// The grid fits itself to the points it indexes: its origin is their
// bounding box's lower corner, so negative coordinates need no shifting,
// and distances are tested on the original coordinates. When the points
// lie so far apart that cell_size-wide cells would outnumber them many
// times over, the cells widen until their count is O(n); queries stay
// exact, only coarser.
#pragma once

#include <cstdint>
#include <vector>

#include "geo/vec2.h"

namespace byzcast::geo {

class GridIndex {
 public:
  /// Indexes `positions`: item i sits at positions[i]. `cell_size`
  /// should equal the dominant query radius. Throws std::invalid_argument
  /// on a non-positive cell size or a non-finite position.
  GridIndex(std::vector<Vec2> positions, double cell_size);

  /// Appends to `out` every item within `radius` of `center` (inclusive),
  /// including an item located exactly at `center`. `center` may lie
  /// outside the indexed points' bounding box. `out` is cleared.
  void query(Vec2 center, double radius, std::vector<std::size_t>& out) const;

  /// Appends to `out` every item stored in a cell that overlaps the
  /// axis-aligned square circumscribing the disk (`center`, `radius`) —
  /// a cheap superset of query() with no per-item distance filter, for
  /// callers that re-check candidates against fresher positions anyway.
  /// `out` is cleared.
  void query_cells(Vec2 center, double radius,
                   std::vector<std::size_t>& out) const;

  [[nodiscard]] std::size_t size() const { return positions_.size(); }
  [[nodiscard]] Vec2 position(std::size_t item) const {
    return positions_[item];
  }
  [[nodiscard]] std::size_t cell_count() const { return cells_.size(); }

 private:
  struct CellSpan {
    std::size_t cx_lo, cx_hi, cy_lo, cy_hi;
  };
  [[nodiscard]] CellSpan span_of(Vec2 center, double radius) const;

  std::vector<Vec2> positions_;
  Vec2 origin_;  ///< lower corner of the points' bounding box
  double cell_size_;
  std::size_t cols_ = 0;
  std::size_t rows_ = 0;
  std::vector<std::vector<std::size_t>> cells_;
};

}  // namespace byzcast::geo
