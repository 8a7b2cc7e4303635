#include "support/stats.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "support/error.hpp"

namespace mpicp::support {

double mean(std::span<const double> xs) {
  MPICP_REQUIRE(!xs.empty(), "mean of empty range");
  return std::accumulate(xs.begin(), xs.end(), 0.0) /
         static_cast<double>(xs.size());
}

double variance(std::span<const double> xs) {
  MPICP_REQUIRE(xs.size() >= 2, "variance needs at least two samples");
  const double m = mean(xs);
  double acc = 0.0;
  for (double x : xs) acc += (x - m) * (x - m);
  return acc / static_cast<double>(xs.size() - 1);
}

double stddev(std::span<const double> xs) { return std::sqrt(variance(xs)); }

double min(std::span<const double> xs) {
  MPICP_REQUIRE(!xs.empty(), "min of empty range");
  return *std::min_element(xs.begin(), xs.end());
}

double max(std::span<const double> xs) {
  MPICP_REQUIRE(!xs.empty(), "max of empty range");
  return *std::max_element(xs.begin(), xs.end());
}

double median(std::span<const double> xs) { return quantile(xs, 0.5); }

double quantile(std::span<const double> xs, double q) {
  std::vector<double> v(xs.begin(), xs.end());
  std::sort(v.begin(), v.end());
  return quantile_sorted(v, q);
}

double quantile_sorted(std::span<const double> sorted, double q) {
  MPICP_REQUIRE(!sorted.empty(), "quantile of empty range");
  MPICP_REQUIRE(q >= 0.0 && q <= 1.0, "quantile order outside [0,1]");
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const auto hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return sorted[lo] + frac * (sorted[hi] - sorted[lo]);
}

double geomean(std::span<const double> xs) {
  MPICP_REQUIRE(!xs.empty(), "geomean of empty range");
  double acc = 0.0;
  for (double x : xs) {
    MPICP_REQUIRE(x > 0.0, "geomean needs positive inputs");
    acc += std::log(x);
  }
  return std::exp(acc / static_cast<double>(xs.size()));
}

Summary summarize(std::span<const double> xs) {
  Summary s;
  s.n = xs.size();
  if (xs.empty()) return s;
  s.mean = mean(xs);
  s.median = median(xs);
  s.min = min(xs);
  s.max = max(xs);
  s.q25 = quantile(xs, 0.25);
  s.q75 = quantile(xs, 0.75);
  s.stddev = xs.size() >= 2 ? stddev(xs) : 0.0;
  return s;
}

}  // namespace mpicp::support
