#pragma once

#include <atomic>
#include <cstddef>
#include <functional>
#include <limits>
#include <vector>

#include "runtime/stop.h"

namespace ntr::core {

/// How many threads a candidate-evaluation loop may use. The default of 1
/// keeps every library entry point serial unless a caller opts in; 0 asks
/// for one lane per hardware thread. Plumbed from the CLI (--threads) and
/// the bench harness (NTR_THREADS) down into the LDRG family.
struct ParallelConfig {
  std::size_t num_threads = 1;  ///< 0 = hardware concurrency

  /// The effective lane count: num_threads, or the hardware concurrency
  /// when num_threads is 0 (at least 1 when even that is unknown).
  [[nodiscard]] std::size_t resolved_threads() const;

  [[nodiscard]] bool serial() const { return resolved_threads() <= 1; }
};

/// A fixed-size pool of worker threads executing one "lane job" at a time.
///
/// The pool exists to make candidate scans parallel *without* making them
/// nondeterministic: work is always split by static chunking (below), so
/// which lane computes which candidate depends only on the lane count,
/// never on scheduling. The calling thread participates as lane 0, so a
/// pool built for n lanes owns n-1 threads.
class ThreadPool {
 public:
  /// Creates a pool with `lanes` total lanes (clamped to >= 1). Lane 0 is
  /// the calling thread; lanes-1 worker threads are started immediately
  /// and live until destruction.
  explicit ThreadPool(std::size_t lanes);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  [[nodiscard]] std::size_t lane_count() const;

  /// Runs fn(lane) once per lane in [0, lane_count()) and blocks until
  /// every lane finished. fn runs on the calling thread for lane 0 and on
  /// the pool's workers for the rest. If any lane throws, the first
  /// exception (in lane order) is rethrown here after all lanes complete.
  void run(const std::function<void(std::size_t)>& fn);

 private:
  struct Impl;
  Impl* impl_;
};

/// Deterministic parallel-for with static chunking: splits [0, n) into
/// lane_count contiguous chunks whose sizes differ by at most one, and
/// runs fn(lane, begin, end) for each non-empty chunk. Chunk boundaries
/// are a pure function of (n, lane count), so a reduction that combines
/// per-chunk results in index order is bit-identical for every lane count.
/// A null pool (or a 1-lane pool) degenerates to fn(0, 0, n) inline.
void parallel_chunks(ThreadPool* pool, std::size_t n,
                     const std::function<void(std::size_t lane, std::size_t begin,
                                              std::size_t end)>& fn);

/// The half-open chunk assigned to `lane` out of `lanes` over [0, n):
/// the first n % lanes chunks take one extra element. Exposed so tests
/// and reductions can reason about the exact split.
struct ChunkRange {
  std::size_t begin = 0;
  std::size_t end = 0;
  [[nodiscard]] std::size_t size() const { return end - begin; }
  [[nodiscard]] bool empty() const { return begin == end; }
};
[[nodiscard]] ChunkRange chunk_range(std::size_t n, std::size_t lane,
                                     std::size_t lanes);

/// The winner of a parallel_argmin scan: the lowest score strictly below
/// the scan's bound and its item index, or index == npos when no item
/// scored below the bound.
struct Argmin {
  static constexpr std::size_t npos = std::numeric_limits<std::size_t>::max();
  double score = std::numeric_limits<double>::infinity();
  std::size_t index = npos;
  [[nodiscard]] bool found() const { return index != npos; }
};

/// Lowest score wins, ties go to the lowest index; lanes that found
/// nothing are skipped. Reducing the per-lane winners this way reproduces
/// the serial loop's "strict improvement, first tie wins" result for any
/// lane count.
[[nodiscard]] Argmin reduce_argmin(const std::vector<Argmin>& lane_best);

/// In-lane stop-poll stride: every kStopPollStride items each lane
/// re-checks the shared stop flag and the token. An item is a whole
/// candidate score (an LU solve or an O(n) delta), so the stride bounds
/// cancellation latency to a few scores without measurable overhead.
inline constexpr std::size_t kStopPollStride = 16;

/// True when the scan must stop: another lane already raised `stop_hit`,
/// or `stop` has tripped (then this call raises the flag for the others).
[[nodiscard]] bool lane_should_stop(const runtime::StopToken& stop,
                                    std::atomic<bool>& stop_hit);

/// Deterministic, stoppable parallel argmin over items [0, n).
///
/// Each lane scans its static chunk (parallel_chunks) and calls
/// score(i, lane_bound) per item, where lane_bound starts at `bound` and
/// drops to every strictly lower score the lane sees. A scorer may use the
/// bound as a branch-and-bound cutoff -- return anything >= lane_bound
/// (e.g. +infinity) once it proves the item cannot win -- since such an
/// item is never selected. The per-lane winners are reduced by
/// (score, index), so the result is bit-identical for every lane count.
///
/// When `stop` is engaged, each lane polls it every kStopPollStride items;
/// one lane observing a trip flags the others, the pool joins cleanly,
/// and the trip is rethrown here as a typed NtrError naming `what`.
/// Exceptions thrown by `score` propagate as in ThreadPool::run.
///
/// A template so the per-item call is a direct (inlinable) call, never a
/// std::function dispatch.
template <class Score>
[[nodiscard]] Argmin parallel_argmin(ThreadPool* pool, std::size_t n,
                                     const runtime::StopToken& stop,
                                     const char* what, double bound,
                                     const Score& score) {
  const bool stop_engaged = stop.engaged();
  std::vector<Argmin> lane_best(pool == nullptr ? 1 : pool->lane_count());
  std::atomic<bool> stop_hit{false};
  parallel_chunks(pool, n,
                  [&](std::size_t lane, std::size_t begin, std::size_t end) {
                    Argmin best;
                    double lane_bound = bound;
                    for (std::size_t i = begin; i < end; ++i) {
                      if (stop_engaged && (i - begin) % kStopPollStride == 0 &&
                          lane_should_stop(stop, stop_hit))
                        break;
                      const double t = score(i, lane_bound);
                      if (t < lane_bound) {
                        lane_bound = t;
                        best = Argmin{t, i};
                      }
                    }
                    lane_best[lane] = best;
                  });
  if (stop_hit.load(std::memory_order_relaxed)) stop.throw_if_stopped(what);
  return reduce_argmin(lane_best);
}

}  // namespace ntr::core

namespace ntr {
using core::ParallelConfig;  ///< the name the rest of the library uses
}  // namespace ntr
