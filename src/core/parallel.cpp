#include "core/parallel.h"

#include <algorithm>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

#include "check/contracts.h"
#include "core/annotations.h"
#include "runtime/status.h"

namespace ntr::core {

std::size_t ParallelConfig::resolved_threads() const {
  if (num_threads != 0) return num_threads;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

ChunkRange chunk_range(std::size_t n, std::size_t lane, std::size_t lanes) {
  NTR_CHECK(lanes > 0 && lane < lanes);
  const std::size_t base = n / lanes;
  const std::size_t extra = n % lanes;
  const std::size_t begin = lane * base + std::min(lane, extra);
  return ChunkRange{begin, begin + base + (lane < extra ? 1 : 0)};
}

struct ThreadPool::Impl {
  std::mutex mutex;
  std::condition_variable work_cv;   // workers wait here for a new job
  std::condition_variable done_cv;   // run() waits here for completion
  const std::function<void(std::size_t)>* job NTR_GUARDED_BY(mutex) = nullptr;
  // bumped per job; wakes the workers
  std::uint64_t generation NTR_GUARDED_BY(mutex) = 0;
  // workers still running the current job
  std::size_t pending NTR_GUARDED_BY(mutex) = 0;
  bool shutdown NTR_GUARDED_BY(mutex) = false;
  // First failing lane's exception, by lane order so reruns agree.
  std::size_t failed_lane NTR_GUARDED_BY(mutex) = 0;
  std::exception_ptr failure NTR_GUARDED_BY(mutex);
  std::vector<std::thread> workers;

  void worker_loop(std::size_t lane) {
    std::uint64_t seen = 0;
    for (;;) {
      const std::function<void(std::size_t)>* fn = nullptr;
      {
        std::unique_lock<std::mutex> lock(mutex);
        work_cv.wait(lock, [&] { return shutdown || generation != seen; });
        if (shutdown) return;
        seen = generation;
        fn = job;
      }
      execute(*fn, lane);
      {
        std::lock_guard<std::mutex> lock(mutex);
        if (--pending == 0) done_cv.notify_all();
      }
    }
  }

  void execute(const std::function<void(std::size_t)>& fn, std::size_t lane) {
    try {
      fn(lane);
    } catch (...) {
      // ntr-blocking-in-lane(failure capture on the lane's exception path)
      std::lock_guard<std::mutex> lock(mutex);
      if (!failure || lane < failed_lane) {
        failure = std::current_exception();
        failed_lane = lane;
      }
    }
  }
};

ThreadPool::ThreadPool(std::size_t lanes) : impl_(new Impl) {
  const std::size_t workers = lanes > 1 ? lanes - 1 : 0;
  impl_->workers.reserve(workers);
  for (std::size_t i = 0; i < workers; ++i)
    impl_->workers.emplace_back([this, i] { impl_->worker_loop(i + 1); });
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(impl_->mutex);
    impl_->shutdown = true;
  }
  impl_->work_cv.notify_all();
  for (std::thread& t : impl_->workers) t.join();
  delete impl_;
}

std::size_t ThreadPool::lane_count() const { return impl_->workers.size() + 1; }

void ThreadPool::run(const std::function<void(std::size_t)>& fn) {
  {
    // A nested ldrg invocation from an outer lane funnels through here
    // by design; the inner pool is sized 1 in that configuration.
    // ntr-blocking-in-lane(this IS the lane dispatch latch)
    std::lock_guard<std::mutex> lock(impl_->mutex);
    impl_->job = &fn;
    impl_->pending = impl_->workers.size();
    impl_->failure = nullptr;
    impl_->failed_lane = 0;
    ++impl_->generation;
  }
  impl_->work_cv.notify_all();
  impl_->execute(fn, 0);  // the calling thread is lane 0
  {
    // ntr-blocking-in-lane(completion barrier of the dispatch latch)
    std::unique_lock<std::mutex> lock(impl_->mutex);
    // ntr-blocking-in-lane(completion barrier of the dispatch latch)
    impl_->done_cv.wait(lock, [&] { return impl_->pending == 0; });
    if (impl_->failure) std::rethrow_exception(impl_->failure);
  }
}

Argmin reduce_argmin(const std::vector<Argmin>& lane_best) {
  Argmin best;
  for (const Argmin& lb : lane_best) {
    if (!lb.found()) continue;
    if (lb.score < best.score || (lb.score == best.score && lb.index < best.index))
      best = lb;
  }
  return best;
}

bool lane_should_stop(const runtime::StopToken& stop, std::atomic<bool>& stop_hit) {
  if (stop_hit.load(std::memory_order_relaxed) ||
      stop.poll() != runtime::StatusCode::kOk) {
    stop_hit.store(true, std::memory_order_relaxed);
    return true;
  }
  return false;
}

void parallel_chunks(ThreadPool* pool, std::size_t n,
                     const std::function<void(std::size_t, std::size_t,
                                              std::size_t)>& fn) {
  if (n == 0) return;
  if (pool == nullptr || pool->lane_count() <= 1) {
    fn(0, 0, n);
    return;
  }
  const std::size_t lanes = pool->lane_count();
  pool->run([&](std::size_t lane) {
    const ChunkRange r = chunk_range(n, lane, lanes);
    if (!r.empty()) fn(lane, r.begin, r.end);
  });
}

}  // namespace ntr::core
