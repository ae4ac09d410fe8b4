#include "steiner/iterated_one_steiner.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>
#include <utility>
#include <unordered_set>

#include "check/contracts.h"
#include "graph/validate.h"
#include "geom/hanan.h"

namespace ntr::steiner {

namespace {

/// Gains below this fraction of the current tree cost count as zero, so
/// floating-point noise cannot keep the loop adding Steiner points.
constexpr double kMinRelativeGain = 1e-12;

double mst_cost(std::span<const geom::Point> points) {
  const std::vector<graph::IndexEdge> edges = graph::prim_mst(points);
  return graph::edges_cost(points, edges);
}

/// Drops the Steiner points (the entries of `points` past `pin_count`) that
/// the MST uses with degree <= 2, highest index first and one at a time,
/// since degrees change with each removal: a degree-2 Steiner point never
/// shortens a rectilinear MST, and a degree-<=1 point is dead weight.
/// Returns the MST of the points that remain.
std::vector<graph::IndexEdge> prune_steiner_points(std::vector<geom::Point>& points,
                                                   std::size_t pin_count) {
  for (;;) {
    std::vector<graph::IndexEdge> tree = graph::prim_mst(points);
    std::vector<std::size_t> deg(points.size(), 0);
    for (const auto& [u, v] : tree) {
      ++deg[u];
      ++deg[v];
    }
    std::size_t i = points.size();
    while (i > pin_count && deg[i - 1] > 2) --i;
    if (i == pin_count) return tree;
    points.erase(points.begin() + static_cast<std::ptrdiff_t>(i - 1));
  }
}

/// The routing graph of `tree` over `points`: the net's pins, then Steiner
/// points.
graph::RoutingGraph steiner_graph(const graph::Net& net, std::span<const geom::Point> points,
                                  std::span<const graph::IndexEdge> tree, const char* what) {
  graph::RoutingGraph g(net);
  for (std::size_t i = net.size(); i < points.size(); ++i)
    g.add_node(points[i], graph::NodeKind::kSteiner);
  for (const auto& [u, v] : tree) g.add_edge(u, v);
  // An MST over pins + surviving Steiner points spans them as a tree.
  NTR_CHECK(g.is_tree());
  NTR_DCHECK(check::require(
      graph::validate_graph(g, {.require_source = true, .require_connected = true}), what));
  return g;
}

/// Which of 8 regions around `c` holds `p`: the signs of dx and dy (zero
/// counts as positive) and whether |dx| < |dy|. Each region lies within one
/// closed 45-degree octant, which is all the octant lemma below needs.
std::size_t octant(const geom::Point& c, const geom::Point& p) {
  const double dx = p.x - c.x;
  const double dy = p.y - c.y;
  return (dx < 0 ? 4u : 0u) + (dy < 0 ? 2u : 0u) + (std::abs(dx) < std::abs(dy) ? 1u : 0u);
}

/// bottleneck[i * n + j]: the longest edge on the path between points i and
/// j of `tree`, by one walk of the tree from every point: O(n^2).
std::vector<double> tree_bottlenecks(std::span<const geom::Point> points,
                                     std::span<const graph::IndexEdge> tree) {
  const std::size_t n = points.size();
  std::vector<std::vector<std::pair<std::size_t, double>>> adjacent(n);
  for (const auto& [u, v] : tree) {
    const double length = geom::manhattan_distance(points[u], points[v]);
    adjacent[u].emplace_back(v, length);
    adjacent[v].emplace_back(u, length);
  }
  std::vector<double> bottleneck(n * n, 0.0);
  std::vector<std::pair<std::size_t, std::size_t>> stack;  // (point, where it was reached from)
  for (std::size_t root = 0; root < n; ++root) {
    double* row = &bottleneck[root * n];
    stack.assign(1, {root, root});
    while (!stack.empty()) {
      const auto [x, from] = stack.back();
      stack.pop_back();
      for (const auto& [y, length] : adjacent[x]) {
        if (y == from) continue;
        row[y] = std::max(row[x], length);
        stack.emplace_back(y, x);
      }
    }
  }
  return bottleneck;
}

/// Lowers length/nearest to the nearest of points[first..] to c in each
/// octant, keeping the lower index on ties.
void scan_octants(const geom::Point& c, std::span<const geom::Point> points, std::size_t first,
                  std::array<double, 8>& length, std::array<std::size_t, 8>& nearest) {
  for (std::size_t i = first; i < points.size(); ++i) {
    const double d = geom::manhattan_distance(points[i], c);
    const std::size_t o = octant(c, points[i]);
    if (d < length[o]) {
      length[o] = d;
      nearest[o] = i;
    }
  }
}

/// The gain of a candidate whose nearest point in each octant is given,
/// from the `bottleneck` table of the n points (the derivation is in
/// OneSteinerGains::operator()).
double star_gain(const std::array<double, 8>& length, const std::array<std::size_t, 8>& nearest,
                 std::span<const double> bottleneck, std::size_t n) {
  // The non-empty octants' edges a_1 <= ... <= a_k to q_1..q_k (insertion
  // sort), then the sum.
  std::array<double, 8> a{};
  std::array<std::size_t, 8> q{};
  std::size_t k = 0;
  for (std::size_t o = 0; o < length.size(); ++o) {
    if (length[o] == std::numeric_limits<double>::infinity()) continue;
    std::size_t at = k++;
    for (; at > 0 && a[at - 1] > length[o]; --at) {
      a[at] = a[at - 1];
      q[at] = q[at - 1];
    }
    a[at] = length[o];
    q[at] = nearest[o];
  }
  if (k == 0) return 0.0;
  double gain = -a[0];
  for (std::size_t i = 1; i < k; ++i) {
    const double* row = &bottleneck[q[i] * n];
    double b = row[q[0]];
    for (std::size_t j = 1; j < i; ++j) b = std::min(b, row[q[j]]);
    gain += std::max(0.0, b - a[i]);
  }
  return gain;
}

}  // namespace

OneSteinerGains::OneSteinerGains(std::span<const geom::Point> pins,
                                 std::span<const geom::Point> candidates)
    : pins_(pins.begin(), pins.end()), candidates_(candidates.begin(), candidates.end()) {
  NTR_CHECK_MSG(pins.size() < kNoPin, "OneSteinerGains: too many pins");
  nearest_pin_.reserve(candidates.size());
  for (const geom::Point& c : candidates) {
    std::array<double, 8> length;
    length.fill(std::numeric_limits<double>::infinity());
    std::array<std::size_t, 8> nearest{};
    scan_octants(c, pins, 0, length, nearest);
    std::array<std::uint32_t, 8>& pin = nearest_pin_.emplace_back();
    for (std::size_t o = 0; o < pin.size(); ++o)
      pin[o] = length[o] == std::numeric_limits<double>::infinity()
                   ? kNoPin
                   : static_cast<std::uint32_t>(nearest[o]);
  }
}

std::vector<double> OneSteinerGains::operator()(std::span<const geom::Point> points,
                                                std::span<const graph::IndexEdge> tree) const {
  const std::size_t n = points.size();
  NTR_CHECK_MSG(n >= pins_.size() && std::equal(pins_.begin(), pins_.end(), points.begin()),
                "OneSteinerGains: the points must start with the pins");
  NTR_CHECK_MSG(tree.size() + 1 == std::max<std::size_t>(n, 1),
                "OneSteinerGains: the tree must span the points");
  // The MST of points + {c} lies within `tree` plus the edges at c (cycle
  // property: an edge between two points that `tree` leaves out is the
  // longest on its cycle through `tree`, and adding c does not remove that
  // cycle). Of the edges at c only the shortest in each octant matter: for
  // p, q in one closed octant of c with |cq| <= |cp|, also |qp| <= |cp|, so
  // p and q are already joined by edges no longer than |cp| (the octant
  // lemma of Zhou, Shenoy & Nicholls).
  //
  // Sort those <= 8 octant edges as a_1 <= ... <= a_k to q_1..q_k, and let
  // b_i be the least bottleneck length B(q_i, q_j) over j < i. Below a
  // length t, B <= t is an equivalence on the points (a tree's bottleneck
  // is an ultrametric), and the MST cost is the integral over t of the
  // number of components of the edges no longer than t, less one. Adding c
  // changes that count by one (c) less the number of classes that the
  // octant edges no longer than t reach, and q_i opens a new class exactly
  // for a_i <= t < b_i. So, exactly in real arithmetic,
  //   gain = sum over i >= 2 of max(0, b_i - a_i), less a_1.
  const std::vector<double> bottleneck = tree_bottlenecks(points, tree);

  std::vector<double> gains;
  gains.reserve(candidates_.size());
  for (std::size_t i = 0; i < candidates_.size(); ++i) {
    const geom::Point& c = candidates_[i];
    std::array<double, 8> length;
    std::array<std::size_t, 8> nearest{};
    for (std::size_t o = 0; o < length.size(); ++o) {
      const std::uint32_t pin = nearest_pin_[i][o];
      length[o] = pin == kNoPin ? std::numeric_limits<double>::infinity()
                                : geom::manhattan_distance(points[pin], c);
      if (pin != kNoPin) nearest[o] = pin;
    }
    scan_octants(c, points, pins_.size(), length, nearest);
    gains.push_back(star_gain(length, nearest, bottleneck, n));
  }
  return gains;
}

SteinerResult iterated_one_steiner(const graph::Net& net) {
  net.validate();

  const std::size_t pins = net.size();
  std::vector<geom::Point> augmented = net.pins;  // pins followed by Steiner points
  std::vector<graph::IndexEdge> tree = graph::prim_mst(augmented);

  // Candidates come from the Hanan grid of the *original* pins: Hanan's
  // theorem covers the optimal rectilinear Steiner tree with this set.
  const std::vector<geom::Point> candidates = geom::hanan_grid(net.pins);
  const OneSteinerGains gains(net.pins, candidates);
  const std::size_t none = candidates.size();
  std::vector<std::size_t> order;
  std::vector<geom::Point> with;

  for (;;) {
    const double current_cost = graph::edges_cost(augmented, tree);
    const double min_gain = kMinRelativeGain * current_cost;
    // The estimate and the Prim gain current_cost - mst_cost(with) agree in
    // real arithmetic; in floating point (unit roundoff u = 2^-53, m points,
    // W = current_cost) they differ by at most
    //   * Prim's sums of m - 1 and m lengths, the second at most 2W (a
    //     Hanan candidate is within the pins' half-perimeter <= W of a
    //     pin), and the difference of the two: (3m + 3)·u·W;
    //   * the estimate's <= 7 differences b_i - a_i and its sum of <= 8
    //     terms, whose magnitudes total at most 3W: 23·u·W;
    //   * lengths rounded to within 2u of the true ones, and octant tests
    //     made on rounded coordinates, either of which may break the
    //     octant lemma by that much: the two MSTs then differ by <= 16·u·W.
    // That is (3m + 42)·u·W, below 1e-11·W for m up to 10^4 points, so
    // kGainSlack·W bounds it with room to spare. The exact Prim gain of
    // each confirmed candidate is checked against it below.
    const double slack = kGainSlack * current_cost;

    // Unused candidates that could still beat min_gain, best estimate
    // first, the lower index on ties.
    const std::vector<double> estimate = gains(augmented, tree);
    const std::unordered_set<geom::Point> used(augmented.begin(), augmented.end());
    order.clear();
    for (std::size_t i = 0; i < candidates.size(); ++i)
      if (estimate[i] + slack >= min_gain && !used.contains(candidates[i])) order.push_back(i);
    std::sort(order.begin(), order.end(), [&estimate](std::size_t a, std::size_t b) {
      return estimate[a] != estimate[b] ? estimate[a] > estimate[b] : a < b;
    });

    // Confirm with the exact Prim gain and pick as a full scan of it in
    // index order would: the strictly largest gain above min_gain, the
    // lowest index on ties. A candidate whose estimate plus slack falls
    // below the best confirmed gain cannot reach it, nor can any after it.
    double best_gain = min_gain;
    std::size_t best = none;
    with.assign(augmented.begin(), augmented.end());
    with.emplace_back();
    for (const std::size_t i : order) {
      if (estimate[i] + slack < best_gain) break;
      with.back() = candidates[i];
      const double gain = current_cost - mst_cost(with);
      NTR_DCHECK_MSG(std::abs(gain - estimate[i]) <= slack,
                     "1-Steiner gain estimate outside its rounding slack");
      if (gain > best_gain || (best != none && gain == best_gain && i < best)) {
        best_gain = gain;
        best = i;
      }
    }
    if (best == none) break;

    augmented.push_back(candidates[best]);
    tree = prune_steiner_points(augmented, pins);
  }

  SteinerResult result;
  result.steiner_points.assign(augmented.begin() + static_cast<std::ptrdiff_t>(pins),
                               augmented.end());
  result.graph = steiner_graph(net, augmented, tree, "iterated_one_steiner postcondition");
  return result;
}

ExactSteinerResult exact_steiner_tree(const graph::Net& net,
                                      std::size_t max_steiner_points,
                                      std::size_t max_pins_guard) {
  net.validate();
  if (net.size() > max_pins_guard)
    throw std::invalid_argument(
        "exact_steiner_tree: net too large for brute force (raise the guard "
        "explicitly if you really mean it)");

  const std::vector<geom::Point> candidates = geom::hanan_grid(net.pins);
  // A rectilinear SMT on n pins never needs more than n-2 Steiner points.
  const std::size_t budget =
      std::min(max_steiner_points,
               net.size() >= 2 ? net.size() - 2 : std::size_t{0});

  ExactSteinerResult best;
  double best_cost = std::numeric_limits<double>::infinity();
  std::vector<geom::Point> chosen;

  // Enumerate subsets of size <= budget (combinations via start index),
  // evaluating each by the MST over pins + subset.
  const auto evaluate = [&]() {
    std::vector<geom::Point> points = net.pins;
    points.insert(points.end(), chosen.begin(), chosen.end());
    const double cost = mst_cost(points);
    ++best.trees_evaluated;
    if (cost < best_cost) {
      best_cost = cost;
      best.steiner_points = chosen;
    }
  };
  const auto recurse = [&](auto&& self, std::size_t start) -> void {
    evaluate();
    if (chosen.size() >= budget) return;
    for (std::size_t i = start; i < candidates.size(); ++i) {
      chosen.push_back(candidates[i]);
      self(self, i + 1);
      chosen.pop_back();
    }
  };
  recurse(recurse, 0);

  // Materialize the winning tree without the Steiner points it does not need.
  std::vector<geom::Point> augmented = net.pins;
  augmented.insert(augmented.end(), best.steiner_points.begin(),
                   best.steiner_points.end());
  const std::vector<graph::IndexEdge> tree = prune_steiner_points(augmented, net.size());
  best.steiner_points.assign(augmented.begin() + static_cast<std::ptrdiff_t>(net.size()),
                             augmented.end());
  best.graph = steiner_graph(net, augmented, tree, "exact_steiner_tree postcondition");
  return best;
}

}  // namespace ntr::steiner
