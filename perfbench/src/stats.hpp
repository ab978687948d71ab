// The one percentile helper every perfbench figure goes through, plus
// the clock it is read with.
//
// A timing is reported as its median and the highest percentile that
// still has at least ten samples beyond it, each with the sample count
// it was taken over. Percentiles are nearest-rank on a sorted copy, so a
// reported value is always one that was actually measured.
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace perfbench {

/// Steady-clock nanoseconds (one timeline for due times, landings and
/// per-call timers).
[[nodiscard]] inline std::int64_t now_ns() noexcept {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Samples needed beyond a percentile before it may be reported.
inline constexpr std::size_t kTailSamples = 10;

/// Nearest-rank percentile q in (0, 1] of an unsorted sample; 0 when
/// empty.
[[nodiscard]] inline double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(q * static_cast<double>(v.size()));
  const auto idx = static_cast<std::size_t>(std::max(rank, 1.0)) - 1;
  return v[std::min(idx, v.size() - 1)];
}

/// True when `n` samples leave at least kTailSamples beyond percentile q.
[[nodiscard]] inline bool tail_supported(std::size_t n, double q) {
  return static_cast<double>(n) * (1.0 - q) >=
         static_cast<double>(kTailSamples) - 1e-9;
}

/// Median and the highest supported tail of one sample.
struct Summary {
  std::size_t n = 0;
  double p50 = 0.0;
  double tail_q = 0.0;  ///< 0 when even the median has too few samples
  double tail = 0.0;
};

[[nodiscard]] inline Summary summarize(const std::vector<double>& v) {
  Summary s;
  s.n = v.size();
  s.p50 = percentile(v, 0.5);
  for (const double q : {0.999, 0.99, 0.95, 0.9, 0.5}) {
    if (tail_supported(v.size(), q)) {
      s.tail_q = q;
      s.tail = percentile(v, q);
      break;
    }
  }
  return s;
}

[[nodiscard]] inline double ratio(double num, double den) {
  return den == 0.0 ? 0.0 : num / den;
}

}  // namespace perfbench
