#include "metrics.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <set>
#include <stdexcept>

namespace perfbench {

double median(std::vector<double> sample) {
  if (sample.empty()) throw std::invalid_argument("median of an empty sample");
  std::sort(sample.begin(), sample.end());
  const std::size_t n = sample.size();
  return n % 2 == 1 ? sample[n / 2] : 0.5 * (sample[n / 2 - 1] + sample[n / 2]);
}

std::vector<double> local_medians(const std::vector<double>& sample,
                                  std::size_t half_window) {
  std::vector<double> out;
  out.reserve(sample.size());
  for (std::size_t i = 0; i < sample.size(); ++i) {
    const std::size_t lo = i > half_window ? i - half_window : 0;
    const std::size_t hi = std::min(sample.size(), i + half_window + 1);
    const auto first = sample.begin();
    out.push_back(median(std::vector<double>(first + static_cast<std::ptrdiff_t>(lo),
                                             first + static_cast<std::ptrdiff_t>(hi))));
  }
  return out;
}

namespace {

/// 1-based nearest rank of percentile `pct` in a sample of `n`.
std::size_t rank_of(double pct, std::size_t n) {
  // pct * n / 100 can land a rounding error above an exact integer rank.
  const auto rank =
      static_cast<std::size_t>(std::ceil(pct * static_cast<double>(n) / 100.0 - 1e-9));
  return std::clamp<std::size_t>(rank, 1, n);
}

}  // namespace

double nearest_rank(std::vector<double> sample, double pct) {
  if (sample.empty()) throw std::invalid_argument("percentile of an empty sample");
  if (!(pct > 0.0 && pct <= 100.0))
    throw std::invalid_argument("percentile out of (0, 100]");
  std::sort(sample.begin(), sample.end());
  return sample[rank_of(pct, sample.size()) - 1];
}

TailPercentile tail_percentile(std::vector<double> sample) {
  static constexpr double kLadder[] = {99.9, 99.0, 95.0, 90.0, 75.0, 50.0};
  const std::size_t n = sample.size();
  for (const double pct : kLadder) {
    if (n == 0) break;
    const std::size_t beyond = n - rank_of(pct, n);
    if (beyond >= kTailBeyond)
      return TailPercentile{pct, nearest_rank(std::move(sample), pct), n, beyond};
  }
  throw std::invalid_argument("tail percentile: " + std::to_string(n) +
                              " samples leave fewer than 10 beyond the median");
}

bool valid_metric_name(std::string_view name) {
  if (name.empty() || name.size() > 64) return false;
  const auto alnum = [](char c) {
    return (c >= 'A' && c <= 'Z') || (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9');
  };
  if (!alnum(name.front())) return false;
  return std::all_of(name.begin(), name.end(), [&](char c) {
    return alnum(c) || c == '_' || c == '.' || c == '-';
  });
}

std::string format_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, res.ptr);
}

std::string result_json(bool correct, std::size_t attempted, std::size_t failed,
                        const std::vector<Metric>& metrics) {
  std::set<std::string> seen;
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  bool first = true;
  for (const Metric& m : metrics) {
    if (!valid_metric_name(m.name))
      throw std::invalid_argument("bad metric name '" + m.name + "'");
    if (!seen.insert(m.name).second)
      throw std::invalid_argument("repeated metric '" + m.name + "'");
    if (!first) out += ", ";
    first = false;
    out += "\"" + m.name + "\": {\"value\": " + format_number(m.value) +
           ", \"unit\": \"" + m.unit + "\"}";
  }
  out += "}}";
  return out;
}

}  // namespace perfbench
