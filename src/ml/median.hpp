// Constant (per-bank median) predictor — the last rung of the selector's
// fit fallback chain.
//
// When every real learner fails on a degenerate uid (singular normal
// equations, an all-identical feature column, too few rows), predicting
// the median of the observed timings keeps the uid in the model bank
// with the least-wrong constant: the argmin still sees a finite,
// plausible value instead of losing the configuration entirely.
#pragma once

#include "ml/learner.hpp"

namespace mpicp::ml {

class MedianRegressor : public Regressor {
 public:
  MedianRegressor() = default;

  void fit(const Matrix& x, std::span<const double> y) override;
  double predict_one(std::span<const double> x) const override;
  std::string name() const override { return "median"; }
  bool accepts_width(std::size_t) const override { return true; }
  void save(std::ostream& os) const override;
  void load(std::istream& is) override;

  /// The fitted constant (for the compiled bank's lowering pass).
  double value() const { return median_; }

 private:
  double median_ = 0.0;
  bool fitted_ = false;
};

}  // namespace mpicp::ml
