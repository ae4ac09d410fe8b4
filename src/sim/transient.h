#pragma once

#include <limits>
#include <memory>
#include <span>
#include <vector>

#include "linalg/dense_matrix.h"
#include "linalg/vector_ops.h"
#include "runtime/stop.h"
#include "sim/mna.h"
#include "spice/netlist.h"

namespace ntr::sim {

enum class Integration {
  kBackwardEuler,  ///< L-stable, first order; damps the t=0 discontinuity
  kTrapezoidal,    ///< A-stable, second order; the default after BE startup
};

struct TransientOptions {
  /// Fixed step; 0 selects tau_max / 200 automatically, where tau_max is
  /// the largest per-node first-moment (Elmore) time constant.
  double time_step_s = 0.0;
  /// Simulation horizon; 0 selects 40 * tau_max.
  double max_time_s = 0.0;
  /// The integrator after the two backward-Euler startup steps, which
  /// absorb the inconsistent initial condition of the ideal step without
  /// ringing. kBackwardEuler runs every step with it.
  Integration method = Integration::kTrapezoidal;
  /// Cooperative deadline/cancellation, polled every 64 steps of the
  /// time march. An un-engaged token (the default) costs one bool test
  /// per poll and leaves every waveform bit-identical. A tripped token
  /// unwinds with NtrError (kTimeout / kCancelled).
  runtime::StopToken stop{};
};

/// Step-response transient engine over an assembled MNA system. This is
/// the repo's SPICE substitute: for the paper's linear RC(L) decks it
/// computes the same waveforms a SPICE .TRAN analysis would, via LU-
/// factored companion models at a fixed step.
class TransientSimulator {
 public:
  explicit TransientSimulator(const spice::Circuit& circuit,
                              const TransientOptions& options = {});

  [[nodiscard]] double time_step() const { return h_; }

  struct Waveform {
    std::vector<double> time_s;
    /// voltage_v[k][i]: voltage of watched node k at time_s[i].
    std::vector<std::vector<double>> voltage_v;
  };

  /// Simulates up to t_end (capped at the horizon, see max_time_s)
  /// recording the watched nodes at every step.
  Waveform run(double t_end_s, std::span<const spice::CircuitNode> watch);

  struct ThresholdReport {
    /// First time each watched node reaches threshold_fraction of its own
    /// final value (linearly interpolated); +inf if never within the horizon.
    std::vector<double> crossing_s;
    std::vector<double> final_v;
    bool all_crossed = false;
    /// max over watched nodes of crossing_s (the paper's t(G) when the
    /// watched set is the sinks); +inf if any node failed to cross.
    double max_crossing_s = 0.0;
  };

  /// Marches the step response until every watched node has crossed its
  /// threshold (or the horizon is hit). This implements the "50% of Vdd"
  /// SPICE delay measurement used throughout the paper.
  ///
  /// `give_up_after_s` is a branch-and-bound cutoff: once the simulated
  /// time strictly exceeds it with a watched node still below threshold,
  /// that node's crossing provably exceeds the cutoff, so stepping stops
  /// and the node reports +inf. Crossings at or below the cutoff are
  /// bit-identical to an unbounded run (the same fixed-step march is
  /// interrupted, never altered). The default (+inf) never gives up.
  ThresholdReport measure_crossings(
      std::span<const spice::CircuitNode> watch, double threshold_fraction = 0.5,
      double give_up_after_s = std::numeric_limits<double>::infinity());

 private:
  MnaSystem mna_;
  linalg::Vector x_inf_;
  double h_ = 0.0;
  double t_max_ = 0.0;
  TransientOptions options_;

  // Companion-model factorizations: (G + C/h) for BE, (G + 2C/h) for trap.
  std::unique_ptr<linalg::LuFactorization> lu_be_;
  std::unique_ptr<linalg::LuFactorization> lu_trap_;

  void ensure_factorizations();
  /// Advances x by march step `step` (1-based) of size h_: backward Euler
  /// for the startup steps or under kBackwardEuler, trapezoidal otherwise.
  void advance(linalg::Vector& x, std::size_t step) const;
};

}  // namespace ntr::sim
