#pragma once

/// \file stats.hpp
/// Order statistics the benchmark reports: medians and the tail percentile
/// that still has enough samples beyond it to mean something.

#include <algorithm>
#include <array>
#include <cmath>
#include <cstddef>
#include <vector>

namespace bench {

/// Median (mean of the two middle values for an even count); 0 when empty.
inline double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// One tail percentile and the counts behind it.
struct TailPercentile {
  double pct = 0.0;          ///< percentile reported (e.g. 95)
  double value = 0.0;        ///< its nearest-rank value
  std::size_t samples = 0;   ///< sample count
  std::size_t beyond = 0;    ///< samples ranked above the percentile
};

/// Nearest-rank index of percentile `pct` in `n` sorted samples.
inline std::size_t rank_index(double pct, std::size_t n) {
  const auto k = static_cast<std::size_t>(
      std::ceil(pct / 100.0 * static_cast<double>(n) - 1e-9));
  return k == 0 ? 0 : k - 1;
}

/// The highest percentile, at most `max_pct`, with at least `min_beyond`
/// samples ranked above it. Falls back to the median (with its shorter tail
/// count) when even that has fewer.
inline TailPercentile tail_percentile(std::vector<double> v,
                                      double max_pct = 95.0,
                                      std::size_t min_beyond = 10) {
  TailPercentile out;
  out.samples = v.size();
  if (v.empty()) return out;
  std::sort(v.begin(), v.end());
  constexpr std::array<double, 7> kCandidates{99.0, 95.0, 90.0, 80.0,
                                              75.0, 60.0, 50.0};
  for (const double p : kCandidates) {
    if (p > max_pct) continue;
    const std::size_t i = rank_index(p, v.size());
    out = {p, v[i], v.size(), v.size() - i - 1};
    if (out.beyond >= min_beyond) break;
  }
  return out;
}

}  // namespace bench
