#pragma once
// Order statistics the benchmark reports over its own samples.

#include <vector>

namespace perfbench {

// Median of `v` (mean of the two middle values for an even count); 0 for
// an empty sample.
double median(std::vector<double> v);

// Percentile q in [0, 1] by linear interpolation between closest ranks
// (the "inclusive" definition: q=0 is the minimum, q=1 the maximum); 0 for
// an empty sample.
double percentile(std::vector<double> v, double q);

// Quartiles by the default ("exclusive") method of Python's
// statistics.quantiles(v, n=4) — the definition the benchmark's spread
// check uses. Needs at least two values; fewer yield the value itself (or
// zeros when empty).
struct Quartiles {
  double q1 = 0.0;
  double q2 = 0.0;
  double q3 = 0.0;
};
Quartiles quartiles(std::vector<double> v);

// (q3 − q1) / median: the run-to-run spread as a share of the median; 0
// when the median is 0.
double quartile_spread(const std::vector<double>& v);

}  // namespace perfbench
