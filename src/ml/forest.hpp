// Random forest regression — the learner of the authors' earlier
// PMBS'18 paper, kept as a comparator (the present paper found other
// learners to generalize better on larger dataset collections).
#pragma once

#include <cstdint>

#include "ml/learner.hpp"
#include "ml/tree.hpp"

namespace mpicp::ml {

struct ForestParams {
  int num_trees = 100;
  int max_depth = 12;
  double row_fraction = 1.0;  ///< bootstrap sample size (with replacement)
  bool log_target = true;     ///< fit log(y), predict exp (positive data)
  std::uint64_t seed = 4242;
};

class RandomForest final : public Regressor {
 public:
  explicit RandomForest(ForestParams params = {});

  void fit(const Matrix& x, std::span<const double> y) override;
  double predict_one(std::span<const double> x) const override;
  std::string name() const override { return "rf"; }
  bool accepts_width(std::size_t width) const override {
    return splits_below(trees_, width);
  }
  void save(std::ostream& os) const override;
  void load(std::istream& is) override;

  // Introspection for the compiled bank's lowering pass.
  const ForestParams& params() const { return params_; }
  const std::vector<RegressionTree>& trees() const { return trees_; }

 private:
  ForestParams params_;
  std::vector<RegressionTree> trees_;
};

}  // namespace mpicp::ml
