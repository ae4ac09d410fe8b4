// Seeded violations in a parallel_argmin score lambda, which runs on
// every lane like a lane body: it accumulates into a by-reference capture
// (parallel-shared-write), sleeps, and calls a helper that writes a
// stream (blocking-in-lane, directly and through the call graph).

namespace fix::engine {

void trace_score(std::size_t i) {
  std::cout << i;
}

std::size_t best_index(std::size_t n) {
  double scored = 0.0;
  const Argmin best = parallel_argmin(nullptr, n, {}, "fixture scan", 1.0,
                                      [&](std::size_t i, double) {
                                        scored += 1.0;
                                        std::this_thread::sleep_for(
                                            std::chrono::milliseconds(1));
                                        trace_score(i);
                                        return static_cast<double>(i);
                                      });
  return best.index;
}

}  // namespace fix::engine
