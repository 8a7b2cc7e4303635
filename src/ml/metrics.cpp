#include "ml/metrics.hpp"

#include <cmath>

#include "support/error.hpp"

namespace mpicp::ml {

namespace {

void check(std::span<const double> truth, std::span<const double> pred) {
  MPICP_REQUIRE(truth.size() == pred.size() && !truth.empty(),
                "metric inputs must be non-empty and equally sized");
}

}  // namespace

double mae(std::span<const double> truth, std::span<const double> pred) {
  check(truth, pred);
  double acc = 0.0;
  for (std::size_t i = 0; i < truth.size(); ++i) {
    acc += std::abs(truth[i] - pred[i]);
  }
  return acc / static_cast<double>(truth.size());
}

double rmse(std::span<const double> truth, std::span<const double> pred) {
  check(truth, pred);
  double acc = 0.0;
  for (std::size_t i = 0; i < truth.size(); ++i) {
    const double d = truth[i] - pred[i];
    acc += d * d;
  }
  return std::sqrt(acc / static_cast<double>(truth.size()));
}

double mape(std::span<const double> truth, std::span<const double> pred) {
  check(truth, pred);
  double acc = 0.0;
  for (std::size_t i = 0; i < truth.size(); ++i) {
    // mpicp-lint: allow(no-float-eq) — division-by-zero guard
    MPICP_REQUIRE(truth[i] != 0.0, "MAPE undefined for zero truth");
    acc += std::abs((truth[i] - pred[i]) / truth[i]);
  }
  return acc / static_cast<double>(truth.size());
}

}  // namespace mpicp::ml
