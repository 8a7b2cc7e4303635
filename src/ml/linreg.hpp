// Ridge-regularized linear regression — the baseline the paper reports
// as insufficient for the (strongly nonlinear) runtime surfaces.
#pragma once

#include "ml/learner.hpp"

namespace mpicp::ml {

struct LinearParams {
  double ridge = 1e-6;
  bool log_target = true;  ///< fit log(y), predict exp (positive data)
};

class LinearRegressor final : public Regressor {
 public:
  explicit LinearRegressor(LinearParams params = {});

  void fit(const Matrix& x, std::span<const double> y) override;
  double predict_one(std::span<const double> x) const override;
  std::string name() const override { return "linear"; }
  bool accepts_width(std::size_t width) const override {
    return beta_.size() == width + 1;
  }
  void save(std::ostream& os) const override;
  void load(std::istream& is) override;

  /// Fitted coefficients (intercept first).
  const std::vector<double>& coefficients() const { return beta_; }

  bool log_target() const { return params_.log_target; }

 private:
  LinearParams params_;
  std::vector<double> beta_;
};

}  // namespace mpicp::ml
