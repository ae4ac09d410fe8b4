#pragma once

#include <vector>

/// The reference-speed kernel. The machines this benchmark runs on drift in
/// speed by tens of percent over minutes, with CPU time tracking wall time,
/// so raw wall clock cannot compare two builds measured at different times.
/// Every end-to-end time is therefore reported at *reference speed*: the
/// benchmark times this fixed kernel in the same process, between solves,
/// and scales each raw time by kNominalKernelMs / measured kernel time. No
/// library code runs inside the kernel, so no change to the library can
/// move it.
///
/// One sample is the sum of three fixed parts, each the fastest of
/// kRepeats runs: a 96x96 dense matrix product (floating point), Prim's
/// O(n^2) minimum spanning tree over 400 fixed points in the Manhattan
/// metric (scalar, branchy), and a sort of 16384 fixed integers (memory,
/// branches). Measured over minutes of drift on a 4-core VM, the product
/// alone swung by twice as much as the routing workloads did; the sum
/// tracks them with slope close to one (see README.md).
namespace perfbench {

/// Nominal time of one kernel sample (ms). A constant of the benchmark, not
/// a measurement of any one run: it only fixes the unit ("milliseconds at
/// the speed where one sample takes this long"), so it never needs to
/// change.
inline constexpr double kNominalKernelMs = 2.5;

/// Nominal time of one wake-up sample (us), the unit of WakeupKernel.
inline constexpr double kNominalWakeupUs = 20.0;

/// raw x (nominal / measured): a raw time converted to reference speed.
[[nodiscard]] double at_reference_speed(double raw, double kernel_ms,
                                        double nominal_ms = kNominalKernelMs);

class ReferenceKernel {
 public:
  ReferenceKernel();

  /// One kernel sample (ms).
  [[nodiscard]] double sample_ms();

  static constexpr int kRepeats = 3;
  static constexpr int kMatrixDim = 96;
  static constexpr int kPoints = 400;
  static constexpr int kSortSize = 16384;

 private:
  void multiply();
  void spanning_tree();
  void sort();

  std::vector<double> a_, b_, c_;
  std::vector<double> px_, py_;
  std::vector<unsigned> keys_, scratch_;
  double checksum_ = 0.0;
};

/// The reference for times spent waking threads rather than computing:
/// two threads hand a token back and forth through a mutex and condition
/// variable, as the server's event loop, queue and lanes do per request.
/// serve_mix scales its set-up and median request latency by it; on the
/// VM this benchmark was built on, thread wake-ups drifted by up to 1.6x
/// between sessions while the compute kernel moved 1.3x, and set-up time
/// followed this kernel with correlation 0.94 within a session.
class WakeupKernel {
 public:
  /// The median of kSamples hand-offs of kRoundTrips round trips each,
  /// per round trip (us).
  [[nodiscard]] static double sample_us();

  static constexpr int kRoundTrips = 50;
  static constexpr int kSamples = 3;
};

}  // namespace perfbench
