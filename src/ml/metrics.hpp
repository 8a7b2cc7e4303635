// Regression error metrics (§V mentions MAE/RMSE as the standard ML
// view; the HPC-level metric — speed-up over the default — lives in
// tune/evaluator.hpp).
#pragma once

#include <span>

namespace mpicp::ml {

double mae(std::span<const double> truth, std::span<const double> pred);
double rmse(std::span<const double> truth, std::span<const double> pred);
/// Mean absolute percentage error (truth must be nonzero).
double mape(std::span<const double> truth, std::span<const double> pred);

}  // namespace mpicp::ml
