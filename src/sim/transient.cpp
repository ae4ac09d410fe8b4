#include "sim/transient.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

#include "check/contracts.h"
#include "check/faultinject.h"
#include "sim/validate.h"
#include "runtime/status.h"

namespace ntr::sim {

namespace {

/// How often the time-march loops poll the stop token (and the
/// fault-injection deadline site). A power of two so the test reduces to
/// a mask; 64 keeps the un-engaged overhead unmeasurable while bounding
/// deadline overshoot to a handful of LU solves.
constexpr std::size_t kStopPollStride = 64;

/// Auto step tau / kStepsPerTau, auto horizon kMaxTauMultiple * tau, and
/// the backward-Euler steps every march takes before its Integration.
constexpr double kStepsPerTau = 200.0;
constexpr double kMaxTauMultiple = 40.0;
constexpr std::size_t kStartupBeSteps = 2;

/// Polls on step 1 (so even the shortest march honors an already-expired
/// deadline) and every kStopPollStride steps after.
[[nodiscard]] bool is_poll_step(std::size_t step) {
  return (step & (kStopPollStride - 1)) == 1;
}

[[noreturn]] void throw_non_finite(const char* where, spice::CircuitNode node,
                                   double t) {
  throw runtime::NtrError(
      runtime::StatusCode::kNonFinite,
      std::string(where) + ": non-finite voltage at watched node " +
          std::to_string(node) + " (t=" + std::to_string(t) + "s)");
}

linalg::DenseMatrix companion_matrix(const MnaSystem& mna, double cap_scale) {
  linalg::DenseMatrix m = mna.g;
  const std::size_t n = mna.size();
  for (std::size_t r = 0; r < n; ++r)
    for (std::size_t c = 0; c < n; ++c) m(r, c) += cap_scale * mna.c(r, c);
  return m;
}

}  // namespace

TransientSimulator::TransientSimulator(const spice::Circuit& circuit,
                                       const TransientOptions& options)
    : mna_(assemble_mna(circuit)), options_(options) {
  x_inf_ = dc_operating_point(mna_);
  for (std::size_t i = 0; i < x_inf_.size(); ++i) {
    if (!std::isfinite(x_inf_[i]))
      throw runtime::NtrError(
          runtime::StatusCode::kNonFinite,
          "TransientSimulator: non-finite DC operating point (unknown " +
              std::to_string(i) + " of " + std::to_string(x_inf_.size()) + ")");
  }
  const linalg::Vector m1 = first_moment(mna_, x_inf_);

  // tau = largest Elmore time constant among *node* voltages that settle to
  // a nonzero value. Branch currents are excluded: their moments are not
  // time constants.
  double tau = 0.0;
  for (std::size_t i = 0; i < mna_.node_unknowns; ++i) {
    if (std::abs(x_inf_[i]) > 1e-12)
      tau = std::max(tau, std::abs(m1[i] / x_inf_[i]));
  }
  if (tau <= 0.0) {
    // Purely resistive circuit: response is instantaneous; pick a nominal
    // picosecond scale so the stepping loop stays well defined.
    tau = 1e-12;
  }

  h_ = options_.time_step_s > 0.0 ? options_.time_step_s : tau / kStepsPerTau;
  t_max_ = options_.max_time_s > 0.0 ? options_.max_time_s : tau * kMaxTauMultiple;
  if (t_max_ < h_) t_max_ = h_;

  // The stepping loops divide by h_ and iterate to t_max_; a non-finite or
  // non-positive value here means the auto-step heuristic went wrong.
  NTR_CHECK(std::isfinite(h_) && h_ > 0.0);
  NTR_CHECK(std::isfinite(t_max_) && t_max_ >= h_);
  NTR_DCHECK(check::require(
      validate_mna(mna_, {.spd = MnaValidateOptions::Spd::kSkip}),
      "TransientSimulator precondition"));
}

void TransientSimulator::ensure_factorizations() {
  // Every march starts with backward-Euler steps, so BE is always needed.
  if (!lu_be_)
    lu_be_ = std::make_unique<linalg::LuFactorization>(companion_matrix(mna_, 1.0 / h_));
  if (options_.method == Integration::kTrapezoidal && !lu_trap_)
    lu_trap_ =
        std::make_unique<linalg::LuFactorization>(companion_matrix(mna_, 2.0 / h_));
}

void TransientSimulator::advance(linalg::Vector& x, std::size_t step) const {
  const std::size_t n = mna_.size();
  const bool use_be =
      options_.method == Integration::kBackwardEuler || step <= kStartupBeSteps;
  NTR_DCHECK(x.size() == n);
  NTR_DCHECK(use_be ? lu_be_ != nullptr : lu_trap_ != nullptr);
  linalg::Vector rhs(n);
  if (use_be) {
    // (G + C/h) x1 = (C/h) x0 + b
    rhs = mna_.c.multiply(x);
    for (std::size_t i = 0; i < n; ++i) rhs[i] = rhs[i] / h_ + mna_.b_final[i];
    x = lu_be_->solve(rhs);
  } else {
    // (G + 2C/h) x1 = (2C/h - G) x0 + 2b
    const linalg::Vector cx = mna_.c.multiply(x);
    const linalg::Vector gx = mna_.g.multiply(x);
    for (std::size_t i = 0; i < n; ++i)
      rhs[i] = 2.0 * cx[i] / h_ - gx[i] + 2.0 * mna_.b_final[i];
    x = lu_trap_->solve(rhs);
  }
}

TransientSimulator::Waveform TransientSimulator::run(
    double t_end_s, std::span<const spice::CircuitNode> watch) {
  ensure_factorizations();
  Waveform wf;
  wf.voltage_v.resize(watch.size());

  linalg::Vector x(mna_.size(), 0.0);
  const double t_end = std::min(t_end_s, t_max_);
  const auto total_steps = static_cast<std::size_t>(std::ceil(t_end / h_));

  const auto record = [&](double t) {
    wf.time_s.push_back(t);
    for (std::size_t k = 0; k < watch.size(); ++k)
      wf.voltage_v[k].push_back(mna_.node_voltage(x, watch[k]));
  };

  record(0.0);
  const bool stop_engaged = options_.stop.engaged();
  for (std::size_t step = 1; step <= total_steps; ++step) {
    if (is_poll_step(step)) {
      NTR_FAULT_POINT(kTransientDeadline);
      if (stop_engaged) options_.stop.throw_if_stopped("transient run");
    }
    advance(x, step);
    record(static_cast<double>(step) * h_);
  }
  return wf;
}

TransientSimulator::ThresholdReport TransientSimulator::measure_crossings(
    std::span<const spice::CircuitNode> watch, double threshold_fraction,
    double give_up_after_s) {
  if (threshold_fraction <= 0.0 || threshold_fraction >= 1.0)
    throw std::invalid_argument("measure_crossings: threshold must be in (0,1)");
  if (!(give_up_after_s >= 0.0))
    throw std::invalid_argument("measure_crossings: cutoff must be non-negative");
  ensure_factorizations();

  constexpr double kInf = std::numeric_limits<double>::infinity();
  ThresholdReport report;
  report.crossing_s.assign(watch.size(), kInf);
  report.final_v.resize(watch.size());

  std::vector<double> threshold(watch.size());
  std::size_t pending = 0;
  for (std::size_t k = 0; k < watch.size(); ++k) {
    report.final_v[k] = mna_.node_voltage(x_inf_, watch[k]);
    threshold[k] = threshold_fraction * report.final_v[k];
    if (std::abs(report.final_v[k]) < 1e-12) {
      // Node never charges (no DC path from the source): counts as an
      // unreachable sink, reported as +inf.
      threshold[k] = kInf;
    } else {
      ++pending;
    }
  }

  linalg::Vector x(mna_.size(), 0.0);
  std::vector<double> prev(watch.size(), 0.0);
  double t = 0.0;
  const auto total_steps = static_cast<std::size_t>(std::ceil(t_max_ / h_));

  const bool stop_engaged = options_.stop.engaged();
  for (std::size_t step = 1; step <= total_steps && pending > 0; ++step) {
    // A crossing found in this step interpolates into [t, t + h], so once
    // the previous step time t is strictly past the cutoff, every pending
    // node's crossing provably exceeds it -- stop and leave them at +inf.
    if (t > give_up_after_s) break;
    if (is_poll_step(step)) {
      NTR_FAULT_POINT(kTransientDeadline);
      NTR_FAULT_POINT(kTransientNonFinite);
      if (stop_engaged) options_.stop.throw_if_stopped("transient march");
    }
    advance(x, step);
    const double t_next = static_cast<double>(step) * h_;
    for (std::size_t k = 0; k < watch.size(); ++k) {
      if (report.crossing_s[k] != kInf || threshold[k] == kInf) continue;
      const double v = mna_.node_voltage(x, watch[k]);
      if (!std::isfinite(v)) throw_non_finite("measure_crossings", watch[k], t_next);
      if (v >= threshold[k]) {
        const double dv = v - prev[k];
        const double frac = dv > 0.0 ? (threshold[k] - prev[k]) / dv : 1.0;
        report.crossing_s[k] = t + frac * h_;
        --pending;
      }
      prev[k] = v;
    }
    t = t_next;
  }

  // A node that never reaches its threshold -- including nodes whose final
  // value is (numerically) zero -- leaves +inf in crossing_s, so both
  // all_crossed and max_crossing_s report the miss.
  report.all_crossed = true;
  report.max_crossing_s = 0.0;
  for (const double c : report.crossing_s) {
    report.max_crossing_s = std::max(report.max_crossing_s, c);
    if (c == kInf) report.all_crossed = false;
  }
  return report;
}

}  // namespace ntr::sim
