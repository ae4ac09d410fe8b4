#pragma once

#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

/// The benchmark's metric math: medians, the tail-percentile rule, metric
/// names, and the result line every run ends with.
namespace perfbench {

/// Median of a sample (mean of the middle pair for even sizes). Throws on
/// an empty sample.
[[nodiscard]] double median(std::vector<double> sample);

/// For each position i, the median of sample[i - half_window .. i +
/// half_window] (clipped at the ends): a drift estimate that follows slow
/// changes and ignores single outliers.
[[nodiscard]] std::vector<double> local_medians(const std::vector<double>& sample,
                                                std::size_t half_window);

/// Nearest-rank percentile, pct in (0, 100]: the value at 1-based rank
/// ceil(pct / 100 * N) of the sorted sample. Throws on an empty sample.
[[nodiscard]] double nearest_rank(std::vector<double> sample, double pct);

/// The tail the sample supports: the highest percentile of the ladder
/// {99.9, 99, 95, 90, 75, 50} whose nearest rank leaves at least
/// kTailBeyond samples beyond it.
struct TailPercentile {
  double pct = 0.0;          ///< the percentile chosen
  double value = 0.0;        ///< the sample's value at that percentile
  std::size_t samples = 0;   ///< sample count
  std::size_t beyond = 0;    ///< samples ranked above the percentile
};

inline constexpr std::size_t kTailBeyond = 10;

/// Throws std::invalid_argument when no ladder percentile leaves
/// kTailBeyond samples beyond it (fewer than 20 samples).
[[nodiscard]] TailPercentile tail_percentile(std::vector<double> sample);

/// Metric names: start with a letter or digit, at most 64 characters from
/// [A-Za-z0-9_.-].
[[nodiscard]] bool valid_metric_name(std::string_view name);

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Shortest decimal text that reads back as exactly `v` ("null" when v is
/// not finite, which JSON cannot carry).
[[nodiscard]] std::string format_number(double v);

/// The one-line result object:
/// {"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}.
/// Throws std::invalid_argument on an invalid or repeated metric name.
[[nodiscard]] std::string result_json(bool correct, std::size_t attempted,
                                      std::size_t failed,
                                      const std::vector<Metric>& metrics);

}  // namespace perfbench
