#pragma once

#include <compare>
#include <cstddef>
#include <functional>
#include <iosfwd>

namespace ntr::geom {

/// A point in the Manhattan plane. Coordinates are in micrometers, matching
/// the per-unit-length interconnect parameters of the 0.8um technology
/// (Table 1 of the paper).
struct Point {
  double x = 0.0;
  double y = 0.0;

  friend constexpr bool operator==(const Point&, const Point&) = default;
  friend constexpr auto operator<=>(const Point&, const Point&) = default;
};

/// Manhattan (L1) distance; this is the wirelength of a rectilinear
/// connection between two pins and the edge-cost metric used throughout
/// the paper.
constexpr double manhattan_distance(const Point& a, const Point& b) {
  const double dx = a.x - b.x;
  const double dy = a.y - b.y;
  return (dx < 0 ? -dx : dx) + (dy < 0 ? -dy : dy);
}

/// True iff c lies inside (or on the boundary of) the smallest axis-aligned
/// rectangle containing a and b. For such points,
/// manhattan(a,c) + manhattan(c,b) == manhattan(a,b).
constexpr bool within_bounding_box(const Point& a, const Point& b, const Point& c) {
  const double lox = a.x < b.x ? a.x : b.x;
  const double hix = a.x < b.x ? b.x : a.x;
  const double loy = a.y < b.y ? a.y : b.y;
  const double hiy = a.y < b.y ? b.y : a.y;
  return lox <= c.x && c.x <= hix && loy <= c.y && c.y <= hiy;
}

std::ostream& operator<<(std::ostream& os, const Point& p);

}  // namespace ntr::geom

template <>
struct std::hash<ntr::geom::Point> {
  std::size_t operator()(const ntr::geom::Point& p) const noexcept {
    const std::size_t hx = std::hash<double>{}(p.x);
    const std::size_t hy = std::hash<double>{}(p.y);
    return hx ^ (hy + 0x9e3779b97f4a7c15ULL + (hx << 6) + (hx >> 2));
  }
};
