#include <gtest/gtest.h>

#include <atomic>
#include <limits>
#include <numeric>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/parallel.h"
#include "runtime/status.h"
#include "runtime/stop.h"

namespace ntr::core {
namespace {

TEST(ChunkRange, CoversIndexSpaceExactlyOnce) {
  for (const std::size_t n : {0u, 1u, 2u, 7u, 8u, 100u, 101u}) {
    for (const std::size_t lanes : {1u, 2u, 3u, 8u, 16u, 150u}) {
      std::vector<int> hits(n, 0);
      std::size_t expected_begin = 0;
      for (std::size_t lane = 0; lane < lanes; ++lane) {
        const ChunkRange r = chunk_range(n, lane, lanes);
        EXPECT_EQ(r.begin, expected_begin) << n << " " << lanes << " " << lane;
        EXPECT_LE(r.begin, r.end);
        expected_begin = r.end;
        for (std::size_t i = r.begin; i < r.end; ++i) ++hits[i];
      }
      EXPECT_EQ(expected_begin, n);
      for (const int h : hits) EXPECT_EQ(h, 1);
    }
  }
}

TEST(ChunkRange, SizesDifferByAtMostOne) {
  for (const std::size_t n : {5u, 64u, 97u}) {
    for (const std::size_t lanes : {2u, 3u, 7u, 8u}) {
      std::size_t lo = n, hi = 0;
      for (std::size_t lane = 0; lane < lanes; ++lane) {
        const ChunkRange r = chunk_range(n, lane, lanes);
        lo = std::min(lo, r.size());
        hi = std::max(hi, r.size());
      }
      EXPECT_LE(hi - lo, 1u);
    }
  }
}

TEST(ThreadPool, RunsEveryLaneExactlyOnce) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.lane_count(), 4u);
  std::vector<std::atomic<int>> hits(4);
  pool.run([&](std::size_t lane) { ++hits[lane]; });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, IsReusableAcrossManyRuns) {
  ThreadPool pool(3);
  std::atomic<int> total{0};
  for (int round = 0; round < 200; ++round)
    pool.run([&](std::size_t) { ++total; });
  EXPECT_EQ(total.load(), 600);
}

TEST(ThreadPool, RethrowsFirstExceptionInLaneOrder) {
  ThreadPool pool(4);
  try {
    pool.run([](std::size_t lane) {
      if (lane >= 1) throw std::runtime_error("lane " + std::to_string(lane));
    });
    FAIL() << "expected an exception";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "lane 1");
  }
  // The pool survives a throwing job.
  std::atomic<int> ok{0};
  pool.run([&](std::size_t) { ++ok; });
  EXPECT_EQ(ok.load(), 4);
}

TEST(ParallelChunks, NullPoolRunsInline) {
  std::vector<int> hits(10, 0);
  parallel_chunks(nullptr, hits.size(),
                  [&](std::size_t lane, std::size_t begin, std::size_t end) {
                    EXPECT_EQ(lane, 0u);
                    EXPECT_EQ(begin, 0u);
                    EXPECT_EQ(end, hits.size());
                    for (std::size_t i = begin; i < end; ++i) ++hits[i];
                  });
  for (const int h : hits) EXPECT_EQ(h, 1);
}

TEST(ParallelChunks, EveryIndexVisitedOnceForEveryLaneCount) {
  constexpr std::size_t kN = 1000;
  for (const std::size_t lanes : {1u, 2u, 3u, 8u}) {
    ThreadPool pool(lanes);
    std::vector<std::atomic<int>> hits(kN);
    parallel_chunks(&pool, kN,
                    [&](std::size_t, std::size_t begin, std::size_t end) {
                      for (std::size_t i = begin; i < end; ++i) ++hits[i];
                    });
    for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
  }
}

TEST(ParallelChunks, IndexOrderedReductionIsLaneCountInvariant) {
  // The deterministic-reduction recipe the LDRG scans rely on: lane-local
  // results combined in chunk order must be bit-identical for every lane
  // count, because the chunk boundaries are a pure function of (n, lanes).
  constexpr std::size_t kN = 513;
  std::vector<double> values(kN);
  for (std::size_t i = 0; i < kN; ++i)
    values[i] = 1.0 / static_cast<double>(3 * i + 1);

  const auto reduce_with = [&](std::size_t lanes) {
    ThreadPool pool(lanes);
    std::vector<double> lane_sum(lanes, 0.0);
    parallel_chunks(&pool, kN,
                    [&](std::size_t lane, std::size_t begin, std::size_t end) {
                      double s = 0.0;
                      for (std::size_t i = begin; i < end; ++i) s += values[i];
                      lane_sum[lane] = s;
                    });
    // Not bit-equal to the serial sum (different association), but
    // bit-equal across runs and, for matching chunking, across pools.
    return lane_sum;
  };

  for (const std::size_t lanes : {1u, 2u, 5u, 8u}) {
    const std::vector<double> a = reduce_with(lanes);
    const std::vector<double> b = reduce_with(lanes);
    EXPECT_EQ(a, b) << "lanes=" << lanes;
  }
}

constexpr std::size_t kArgminLaneCounts[] = {1, 2, 3, 8};
constexpr double kInf = std::numeric_limits<double>::infinity();

TEST(ParallelArgmin, TiesGoToTheLowestIndex) {
  constexpr std::size_t kN = 40;
  for (const std::size_t lanes : kArgminLaneCounts) {
    ThreadPool pool(lanes);
    // Minima at 9, 21 and 38: in one lane or in three, 9 must win.
    const Argmin got = parallel_argmin(
        &pool, kN, {}, "test scan", kInf, [](std::size_t i, double) {
          return (i == 9 || i == 21 || i == 38) ? 1.0 : 2.0;
        });
    EXPECT_EQ(got.index, 9u) << "lanes=" << lanes;
    EXPECT_EQ(got.score, 1.0) << "lanes=" << lanes;
  }
}

TEST(ParallelArgmin, EmptyAndShorterThanLaneCount) {
  for (const std::size_t lanes : kArgminLaneCounts) {
    ThreadPool pool(lanes);
    std::atomic<int> calls{0};
    const Argmin none = parallel_argmin(&pool, 0, {}, "test scan", kInf,
                                        [&](std::size_t, double) {
                                          ++calls;
                                          return 0.0;
                                        });
    EXPECT_FALSE(none.found()) << "lanes=" << lanes;
    EXPECT_EQ(none.index, Argmin::npos);
    EXPECT_EQ(calls.load(), 0);

    // n = 2 < 3 and < 8 lanes: the idle lanes must not invent a winner.
    const Argmin two = parallel_argmin(
        &pool, 2, {}, "test scan", kInf,
        [](std::size_t i, double) { return i == 0 ? 5.0 : 4.0; });
    EXPECT_EQ(two.index, 1u) << "lanes=" << lanes;
    EXPECT_EQ(two.score, 4.0) << "lanes=" << lanes;
  }
}

TEST(ParallelArgmin, NothingBelowTheBoundGivesNpos) {
  for (const std::size_t lanes : kArgminLaneCounts) {
    ThreadPool pool(lanes);
    // Equal to the bound is not below it: the bound is strict.
    const Argmin got = parallel_argmin(
        &pool, 50, {}, "test scan", 3.0,
        [](std::size_t i, double lane_bound) {
          EXPECT_LE(lane_bound, 3.0);
          return 3.0 + static_cast<double>(i % 3);
        });
    EXPECT_FALSE(got.found()) << "lanes=" << lanes;
    EXPECT_EQ(got.index, Argmin::npos);
  }
}

TEST(ParallelArgmin, LaneBoundIsTheLanesBestSoFar) {
  // One lane: the bound handed to item i is the minimum of the bound and
  // every score before i -- the branch-and-bound cutoff scorers rely on.
  const std::vector<double> scores = {7.0, 9.0, 4.0, 6.0, 4.0, 2.0, 8.0};
  std::vector<double> seen(scores.size());
  const Argmin got = parallel_argmin(nullptr, scores.size(), {}, "test scan",
                                     8.0, [&](std::size_t i, double lane_bound) {
                                       seen[i] = lane_bound;
                                       return scores[i];
                                     });
  EXPECT_EQ(seen, (std::vector<double>{8.0, 7.0, 7.0, 4.0, 4.0, 4.0, 2.0}));
  EXPECT_EQ(got.index, 5u);
}

TEST(ParallelArgmin, StopMidScanThrowsTypedErrorAndPoolRecovers) {
  constexpr std::size_t kN = 200;
  for (const std::size_t lanes : kArgminLaneCounts) {
    ThreadPool pool(lanes);
    runtime::CancelSource source;
    runtime::StopToken stop;
    stop.cancel = source.token();
    // Item 30 trips the token; the lane scoring it polls again within 16
    // items, so the scan must stop and rethrow after the join.
    try {
      static_cast<void>(parallel_argmin(&pool, kN, stop, "argmin test scan", kInf,
                                        [&](std::size_t i, double) {
                                          if (i == 30) source.request_cancel();
                                          return static_cast<double>(i);
                                        }));
      FAIL() << "expected a stop, lanes=" << lanes;
    } catch (const runtime::NtrError& e) {
      EXPECT_EQ(e.code(), runtime::StatusCode::kCancelled);
      EXPECT_NE(std::string(e.what()).find("argmin test scan"), std::string::npos)
          << e.what();
    }
    // The pool joined cleanly and runs the next scan normally.
    const Argmin again = parallel_argmin(
        &pool, kN, {}, "test scan", kInf,
        [](std::size_t i, double) { return static_cast<double>(kN - i); });
    EXPECT_EQ(again.index, kN - 1) << "lanes=" << lanes;
  }
}

TEST(ParallelConfig, ResolvedThreads) {
  EXPECT_EQ(ParallelConfig{}.resolved_threads(), 1u);
  EXPECT_TRUE(ParallelConfig{}.serial());
  EXPECT_EQ(ParallelConfig{3}.resolved_threads(), 3u);
  EXPECT_FALSE(ParallelConfig{3}.serial());
  EXPECT_GE(ParallelConfig{0}.resolved_threads(), 1u);  // hardware count
}

}  // namespace
}  // namespace ntr::core
