// The same scan made safe: each item writes only its own slot, the trace
// runs after the join, and the loop inside one item's score needs no stop
// poll (the argmin polls between items). Must produce zero findings.

namespace fix::engine {

std::size_t best_index_clean(std::size_t n, std::vector<double>& scores) {
  const Argmin best = parallel_argmin(nullptr, n, {}, "fixture scan", 1.0,
                                      [&](std::size_t i, double) {
                                        double s = 0.0;
                                        for (std::size_t k = 0; k <= i; ++k)
                                          s += static_cast<double>(k);
                                        scores[i] = s;
                                        return s;
                                      });
  std::cout << best.index;
  return best.index;
}

}  // namespace fix::engine
