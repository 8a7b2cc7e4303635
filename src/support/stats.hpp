// Small descriptive-statistics helpers used by the benchmarking runner
// and the evaluation harness.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace mpicp::support {

double mean(std::span<const double> xs);
double variance(std::span<const double> xs);  // sample variance (n-1)
double stddev(std::span<const double> xs);
double min(std::span<const double> xs);
double max(std::span<const double> xs);

/// Median; copies and partially sorts its input.
double median(std::span<const double> xs);

/// Linear-interpolation quantile (q in [0,1]); copies and sorts.
double quantile(std::span<const double> xs, double q);

/// quantile() of input that is already sorted ascending: no copy.
double quantile_sorted(std::span<const double> sorted, double q);

/// Geometric mean; requires strictly positive inputs.
double geomean(std::span<const double> xs);

/// Summary bundle for one measurement series.
struct Summary {
  std::size_t n = 0;
  double mean = 0.0;
  double median = 0.0;
  double stddev = 0.0;
  double min = 0.0;
  double max = 0.0;
  double q25 = 0.0;
  double q75 = 0.0;
};

Summary summarize(std::span<const double> xs);

}  // namespace mpicp::support
