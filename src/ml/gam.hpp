// Generalized additive model (the paper's mgcv-style GAM learner).
//
//   log E[y] = beta_0 + f_1(x_1) + ... + f_d(x_d)
//
// with each f_j a penalized cubic B-spline smoother, Gamma family and
// log link — the configuration the paper uses for running times
// ("Gamma family for positive, real-valued data and the log link").
// Fitting is penalized IRLS; with the log link the Gamma IRLS weights
// are constant, so each iteration is a penalized least-squares solve on
// the working response.
#pragma once

#include <vector>

#include "ml/learner.hpp"
#include "ml/spline.hpp"

namespace mpicp::ml {

/// Largest basis size a model file may declare (GamParams defaults to 10).
inline constexpr int kMaxBasisPerFeature = 1024;

struct GamParams {
  int basis_per_feature = 10;  ///< B-spline basis size per smoother
  double lambda = 1.0;         ///< smoothing penalty (fixed; no tuning)
  int max_iters = 50;
  double tol = 1e-8;
};

class GamRegressor final : public Regressor {
 public:
  explicit GamRegressor(GamParams params = {});

  void fit(const Matrix& x, std::span<const double> y) override;
  double predict_one(std::span<const double> x) const override;
  std::string name() const override { return "gam"; }
  bool accepts_width(std::size_t width) const override {
    return bases_.size() == width;
  }
  void save(std::ostream& os) const override;
  void load(std::istream& is) override;

  int iterations_used() const { return iterations_; }

  // Introspection for the compiled bank's lowering pass. Every
  // coefficient is finite: fit throws otherwise, and load's parser
  // rejects inf, nan and out-of-range values.
  const GamParams& params() const { return params_; }
  const std::vector<BSplineBasis>& bases() const { return bases_; }
  const std::vector<double>& beta() const { return beta_; }

 private:
  /// [1 | B_1(x_1) | ... | B_d(x_d)] into `out` (1 + d * basis values).
  void design_row_into(std::span<const double> x,
                       std::span<double> out) const;

  GamParams params_;
  std::vector<BSplineBasis> bases_;
  std::vector<double> beta_;
  int iterations_ = 0;
};

}  // namespace mpicp::ml
