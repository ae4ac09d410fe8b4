#include "refkernel.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <vector>

namespace perfbench {

double at_reference_speed(double raw, double kernel_ms, double nominal_ms) {
  if (!(kernel_ms > 0.0)) throw std::invalid_argument("kernel time must be positive");
  return raw * (nominal_ms / kernel_ms);
}

namespace {

/// A fixed pseudo-random sequence (splitmix64), so the inputs never depend
/// on the standard library's generators.
std::uint64_t next(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

}  // namespace

ReferenceKernel::ReferenceKernel() {
  constexpr auto n = static_cast<std::size_t>(kMatrixDim);
  a_.resize(n * n);
  b_.resize(n * n);
  c_.resize(n * n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      a_[i * n + j] = 1.0 + 0.001 * static_cast<double>((i * 7 + j * 3) % 17);
      b_[i * n + j] = 0.5 - 0.002 * static_cast<double>((i * 5 + j * 11) % 13);
    }
  }
  std::uint64_t state = 19940101;
  for (int i = 0; i < kPoints; ++i) {
    px_.push_back(static_cast<double>(next(state) % 1000000) * 0.01);
    py_.push_back(static_cast<double>(next(state) % 1000000) * 0.01);
  }
  for (int i = 0; i < kSortSize; ++i) keys_.push_back(static_cast<unsigned>(next(state)));
}

void ReferenceKernel::multiply() {
  constexpr auto n = static_cast<std::size_t>(kMatrixDim);
  std::fill(c_.begin(), c_.end(), 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    double* crow = &c_[i * n];
    for (std::size_t k = 0; k < n; ++k) {
      const double aik = a_[i * n + k];
      const double* brow = &b_[k * n];
      for (std::size_t j = 0; j < n; ++j) crow[j] += aik * brow[j];
    }
  }
  checksum_ += c_[n * n - 1];
}

void ReferenceKernel::spanning_tree() {
  const std::size_t n = px_.size();
  std::vector<double> dist(n, std::numeric_limits<double>::infinity());
  std::vector<char> in_tree(n, 0);
  dist[0] = 0.0;
  double total = 0.0;
  for (std::size_t step = 0; step < n; ++step) {
    std::size_t best = n;
    for (std::size_t i = 0; i < n; ++i)
      if (!in_tree[i] && (best == n || dist[i] < dist[best])) best = i;
    in_tree[best] = 1;
    total += dist[best];
    for (std::size_t i = 0; i < n; ++i) {
      if (in_tree[i]) continue;
      const double d = std::abs(px_[i] - px_[best]) + std::abs(py_[i] - py_[best]);
      if (d < dist[i]) dist[i] = d;
    }
  }
  checksum_ += total;
}

void ReferenceKernel::sort() {
  scratch_ = keys_;
  std::sort(scratch_.begin(), scratch_.end());
  checksum_ += static_cast<double>(scratch_[scratch_.size() / 2] & 1U) + 1.0;
}

double ReferenceKernel::sample_ms() {
  using Clock = std::chrono::steady_clock;
  double sample = 0.0;
  for (void (ReferenceKernel::*part)() : {&ReferenceKernel::multiply,
                                          &ReferenceKernel::spanning_tree,
                                          &ReferenceKernel::sort}) {
    double best = std::numeric_limits<double>::infinity();
    for (int r = 0; r < kRepeats; ++r) {
      const Clock::time_point t0 = Clock::now();
      (this->*part)();
      const std::chrono::duration<double, std::milli> took = Clock::now() - t0;
      best = std::min(best, took.count());
    }
    sample += best;
  }
  // Consuming the results keeps every part observable to the optimizer.
  if (!(checksum_ > 0.0)) throw std::logic_error("reference kernel produced no result");
  return sample;
}

double WakeupKernel::sample_us() {
  using Clock = std::chrono::steady_clock;
  std::vector<double> samples;
  for (int s = 0; s < kSamples; ++s) {
    std::mutex mutex;
    std::condition_variable cv;
    bool ball_away = false;  // guarded by mutex
    std::thread partner([&] {
      for (int i = 0; i <= kRoundTrips; ++i) {
        std::unique_lock<std::mutex> lock(mutex);
        cv.wait(lock, [&] { return ball_away; });
        ball_away = false;
        cv.notify_all();
      }
    });
    const auto round_trip = [&] {
      std::unique_lock<std::mutex> lock(mutex);
      ball_away = true;
      cv.notify_all();
      cv.wait(lock, [&] { return !ball_away; });
    };
    round_trip();  // the partner is running from here on
    const Clock::time_point t0 = Clock::now();
    for (int i = 0; i < kRoundTrips; ++i) round_trip();
    const std::chrono::duration<double, std::micro> took = Clock::now() - t0;
    partner.join();
    samples.push_back(took.count() / kRoundTrips);
  }
  std::sort(samples.begin(), samples.end());
  return samples[samples.size() / 2];
}

}  // namespace perfbench
