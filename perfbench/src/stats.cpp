#include "stats.hpp"

#include <algorithm>
#include <cmath>

namespace perfbench {

double median(std::vector<double> v) { return percentile(std::move(v), 0.5); }

double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank =
      std::clamp(q, 0.0, 1.0) * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(rank));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

Quartiles quartiles(std::vector<double> v) {
  if (v.empty()) return {};
  if (v.size() == 1) return {v[0], v[0], v[0]};
  std::sort(v.begin(), v.end());
  const long n = 4;
  const long ld = static_cast<long>(v.size());
  const long m = ld + 1;
  double out[3] = {};
  for (long i = 1; i < n; ++i) {
    const long j = std::clamp(i * m / n, 1L, ld - 1);
    const long delta = i * m - j * n;
    const double lo = v[static_cast<std::size_t>(j - 1)];
    const double hi = v[static_cast<std::size_t>(j)];
    out[i - 1] = (lo * static_cast<double>(n - delta) +
                  hi * static_cast<double>(delta)) /
                 static_cast<double>(n);
  }
  return {out[0], out[1], out[2]};
}

double quartile_spread(const std::vector<double>& v) {
  const Quartiles q = quartiles(v);
  const double mid = median(v);
  return mid != 0.0 ? (q.q3 - q.q1) / mid : 0.0;
}

}  // namespace perfbench
