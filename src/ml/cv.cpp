#include "ml/cv.hpp"

#include "ml/learner.hpp"
#include "ml/metrics.hpp"
#include "support/error.hpp"
#include "support/metrics.hpp"
#include "support/parallel.hpp"
#include "support/rng.hpp"
#include "support/trace.hpp"

namespace mpicp::ml {

Split holdout_split(std::size_t n, double test_fraction,
                    std::uint64_t seed) {
  MPICP_REQUIRE(test_fraction > 0.0 && test_fraction < 1.0,
                "test fraction must be in (0, 1)");
  support::Xoshiro256 rng(seed);
  const auto perm = rng.permutation(n);
  const auto ntest = std::max<std::size_t>(
      1, static_cast<std::size_t>(test_fraction * static_cast<double>(n)));
  Split split;
  for (std::size_t i = 0; i < n; ++i) {
    (i < ntest ? split.test : split.train).push_back(perm[i]);
  }
  return split;
}

std::vector<Split> kfold_splits(std::size_t n, int folds,
                                std::uint64_t seed) {
  MPICP_REQUIRE(folds >= 2 && static_cast<std::size_t>(folds) <= n,
                "invalid fold count");
  support::Xoshiro256 rng(seed);
  const auto perm = rng.permutation(n);
  std::vector<Split> splits(folds);
  for (std::size_t i = 0; i < n; ++i) {
    const int fold = static_cast<int>(i % folds);
    for (int f = 0; f < folds; ++f) {
      (f == fold ? splits[f].test : splits[f].train).push_back(perm[i]);
    }
  }
  return splits;
}

Matrix take_rows(const Matrix& x, const std::vector<std::size_t>& rows) {
  Matrix out(rows.size(), x.cols());
  for (std::size_t i = 0; i < rows.size(); ++i) {
    for (std::size_t f = 0; f < x.cols(); ++f) out(i, f) = x(rows[i], f);
  }
  return out;
}

std::vector<double> take(std::span<const double> y,
                         const std::vector<std::size_t>& rows) {
  std::vector<double> out(rows.size());
  for (std::size_t i = 0; i < rows.size(); ++i) out[i] = y[rows[i]];
  return out;
}

double kfold_rmse(const std::string& learner, const Matrix& x,
                  std::span<const double> y, int folds,
                  std::uint64_t seed) {
  // The fold partition is fixed up front; each fold then fits its own
  // learner instance into a preallocated slot, and the per-fold errors
  // are reduced in fold order — the result is bit-identical to the
  // serial loop at any thread count.
  MPICP_SPAN("cv.kfold_rmse");
  static support::metrics::Counter& runs =
      support::metrics::counter("cv.runs");
  static support::metrics::Counter& fold_count =
      support::metrics::counter("cv.folds");
  runs.inc();
  fold_count.inc(static_cast<std::size_t>(folds));
  const std::vector<Split> splits = kfold_splits(x.rows(), folds, seed);
  std::vector<double> fold_rmse(splits.size(), 0.0);
  support::parallel_for(splits.size(), 1, [&](std::size_t f) {
    MPICP_SPAN("cv.fold");
    const Split& split = splits[f];
    auto model = make_regressor(learner);
    model->fit(take_rows(x, split.train), take(y, split.train));
    const auto pred = model->predict(take_rows(x, split.test));
    fold_rmse[f] = rmse(take(y, split.test), pred);
    static support::metrics::Histogram& rmse_hist =
        support::metrics::histogram("cv.fold_rmse");
    rmse_hist.observe(fold_rmse[f]);
  });
  double acc = 0.0;
  for (const double r : fold_rmse) acc += r;
  return acc / folds;
}

}  // namespace mpicp::ml
