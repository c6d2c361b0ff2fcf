#include "geo/grid_index.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace byzcast::geo {

namespace {

/// Cells per indexed point the grid may allocate before it widens them
/// (tiny sets get a floor of 16 cells).
constexpr double kMaxCellsPerItem = 4;

}  // namespace

GridIndex::GridIndex(std::vector<Vec2> positions, double cell_size)
    : positions_(std::move(positions)), cell_size_(cell_size) {
  if (!(cell_size > 0) || !std::isfinite(cell_size)) {
    throw std::invalid_argument("GridIndex: cell_size must be positive");
  }
  Vec2 hi = positions_.empty() ? Vec2{0, 0} : positions_.front();
  origin_ = hi;
  for (const Vec2& p : positions_) {
    if (!std::isfinite(p.x) || !std::isfinite(p.y)) {
      throw std::invalid_argument("GridIndex: positions must be finite");
    }
    origin_ = {std::min(origin_.x, p.x), std::min(origin_.y, p.y)};
    hi = {std::max(hi.x, p.x), std::max(hi.y, p.y)};
  }
  const Vec2 extent = hi - origin_;
  if (!std::isfinite(extent.x) || !std::isfinite(extent.y)) {
    throw std::invalid_argument("GridIndex: bounding box overflows");
  }
  auto cells_across = [&](double length) {
    return std::floor(length / cell_size_) + 1;
  };
  const double max_cells =
      kMaxCellsPerItem * static_cast<double>(positions_.size()) + 16;
  while (cells_across(extent.x) * cells_across(extent.y) > max_cells) {
    cell_size_ *= 2;
  }
  cols_ = static_cast<std::size_t>(cells_across(extent.x));
  rows_ = static_cast<std::size_t>(cells_across(extent.y));
  cells_.resize(cols_ * rows_);
  for (std::size_t i = 0; i < positions_.size(); ++i) {
    const CellSpan s = span_of(positions_[i], 0);
    cells_[s.cy_lo * cols_ + s.cx_lo].push_back(i);
  }
}

GridIndex::CellSpan GridIndex::span_of(Vec2 center, double radius) const {
  // Cell span that can contain points within `radius` of center. The
  // radius is applied before the origin shift, so an item at exactly
  // center ± radius rounds into the span, never out of it. The clamp
  // happens in double space: casting a negative or huge double to size_t
  // is undefined behaviour, so compare before converting (this also
  // sends NaN to cell 0 instead of an arbitrary index).
  auto cell = [&](double v, double origin, std::size_t hi) {
    const double c = (v - origin) / cell_size_;
    if (!(c >= 0)) return std::size_t{0};
    if (c >= static_cast<double>(hi)) return hi;
    return static_cast<std::size_t>(c);
  };
  return CellSpan{cell(center.x - radius, origin_.x, cols_ - 1),
                  cell(center.x + radius, origin_.x, cols_ - 1),
                  cell(center.y - radius, origin_.y, rows_ - 1),
                  cell(center.y + radius, origin_.y, rows_ - 1)};
}

void GridIndex::query(Vec2 center, double radius,
                      std::vector<std::size_t>& out) const {
  out.clear();
  const double r_sq = radius * radius;
  const CellSpan s = span_of(center, radius);
  for (std::size_t cy = s.cy_lo; cy <= s.cy_hi; ++cy) {
    for (std::size_t cx = s.cx_lo; cx <= s.cx_hi; ++cx) {
      for (std::size_t item : cells_[cy * cols_ + cx]) {
        if (distance_sq(positions_[item], center) <= r_sq) {
          out.push_back(item);
        }
      }
    }
  }
}

void GridIndex::query_cells(Vec2 center, double radius,
                            std::vector<std::size_t>& out) const {
  out.clear();
  const CellSpan s = span_of(center, radius);
  for (std::size_t cy = s.cy_lo; cy <= s.cy_hi; ++cy) {
    for (std::size_t cx = s.cx_lo; cx <= s.cx_hi; ++cx) {
      const auto& cell = cells_[cy * cols_ + cx];
      out.insert(out.end(), cell.begin(), cell.end());
    }
  }
}

}  // namespace byzcast::geo
