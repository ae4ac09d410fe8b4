#pragma once

#include <cstddef>
#include <stdexcept>
#include <vector>

#include "geom/point.h"

namespace ntr::grid {

/// A cell of the routing grid, addressed by column and row.
struct Cell {
  std::size_t col = 0;
  std::size_t row = 0;
  friend bool operator==(const Cell&, const Cell&) = default;
};

/// The four rectilinear directions.
enum class Direction { kEast, kWest, kNorth, kSouth };
inline constexpr Direction kDirections[] = {Direction::kEast, Direction::kWest,
                                            Direction::kNorth, Direction::kSouth};

/// A uniform routing grid over the layout region: cells at pitch
/// `pitch_um`, optional blocked cells (macros/obstacles), and capacitated
/// boundaries between adjacent cells (the classical global-routing GCell
/// model -- each boundary carries at most `capacity` wires).
class Grid {
 public:
  Grid(std::size_t cols, std::size_t rows, double pitch_um, unsigned capacity = 1);

  [[nodiscard]] std::size_t cols() const { return cols_; }
  [[nodiscard]] std::size_t rows() const { return rows_; }
  [[nodiscard]] double pitch() const { return pitch_um_; }
  [[nodiscard]] unsigned capacity() const { return capacity_; }
  [[nodiscard]] std::size_t cell_count() const { return cols_ * rows_; }

  [[nodiscard]] std::size_t index(Cell c) const { return c.row * cols_ + c.col; }
  [[nodiscard]] Cell cell_at(std::size_t index) const {
    return Cell{index % cols_, index / cols_};
  }

  [[nodiscard]] bool in_bounds(Cell c) const { return c.col < cols_ && c.row < rows_; }

  /// Neighbor in the given direction, if any (grid border otherwise).
  [[nodiscard]] bool neighbor(Cell c, Direction d, Cell& out) const;

  // ---- obstacles ----
  void block(Cell c);
  void block_rect(Cell lo, Cell hi);  ///< inclusive rectangle
  [[nodiscard]] bool blocked(Cell c) const { return blocked_[index(c)]; }

  // ---- geometry mapping ----
  [[nodiscard]] geom::Point center(Cell c) const {
    return geom::Point{(static_cast<double>(c.col) + 0.5) * pitch_um_,
                       (static_cast<double>(c.row) + 0.5) * pitch_um_};
  }
  /// Nearest cell to a plane point (clamped to the grid).
  [[nodiscard]] Cell snap(const geom::Point& p) const;

  // ---- boundary usage (congestion) ----
  /// Identifier of the boundary between c and its d-neighbor. Both sides
  /// map to the same id. Precondition: the neighbor exists.
  [[nodiscard]] std::size_t boundary_id(Cell c, Direction d) const;
  [[nodiscard]] unsigned usage(Cell c, Direction d) const {
    return usage_[boundary_id(c, d)];
  }
  void add_usage(Cell c, Direction d, int delta);

  /// Total overflow: sum over boundaries of max(0, usage - capacity).
  [[nodiscard]] std::size_t total_overflow() const;
  [[nodiscard]] unsigned max_usage() const;

 private:
  std::size_t cols_, rows_;
  double pitch_um_;
  unsigned capacity_;
  std::vector<bool> blocked_;
  /// Horizontal boundaries (east-west, (cols-1)*rows of them) followed by
  /// vertical boundaries (north-south, cols*(rows-1)).
  std::vector<unsigned> usage_;

  [[nodiscard]] std::size_t horizontal_boundary_count() const {
    return (cols_ - 1) * rows_;
  }
};

}  // namespace ntr::grid
