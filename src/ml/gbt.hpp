// Gradient-boosted regression trees (the paper's "XGBoost" learner).
//
// Second-order boosting exactly as in Chen & Guestrin (2016): each round
// fits a histogram tree to the per-sample gradient/hessian of the loss
// at the current prediction. For positive, skewed targets like running
// times the paper uses the Tweedie objective with a log link (Gamma
// "also worked well"); both are provided, plus plain squared error.
// Defaults follow the paper's no-tuning discipline: 200 rounds, the
// library's stock depth/learning-rate/regularization.
#pragma once

#include <memory>

#include "ml/learner.hpp"
#include "ml/tree.hpp"

namespace mpicp::ml {

enum class GbtObjective {
  kSquared,
  kGamma,    ///< gamma deviance, log link
  kTweedie,  ///< tweedie deviance (1 < p < 2), log link
};

struct GbtParams {
  GbtObjective objective = GbtObjective::kTweedie;
  double tweedie_p = 1.5;
  int rounds = 200;
  double learning_rate = 0.1;
  TreeParams tree;
};

class GradientBoostedTrees final : public Regressor {
 public:
  explicit GradientBoostedTrees(GbtParams params = {});

  void fit(const Matrix& x, std::span<const double> y) override;
  double predict_one(std::span<const double> x) const override;
  std::string name() const override { return "xgboost"; }
  bool accepts_width(std::size_t width) const override {
    return static_cast<std::size_t>(num_features_) == width &&
           splits_below(trees_, width);
  }
  void save(std::ostream& os) const override;
  void load(std::istream& is) override;

  /// Training loss per round (for the monotone-descent property tests).
  const std::vector<double>& training_loss() const { return loss_; }

  /// Gain-based feature importance, normalized to sum 1 (empty before
  /// fitting). The paper observes message size dominating this ranking.
  std::vector<double> feature_importance() const;

  // Introspection for the compiled bank's lowering pass.
  const GbtParams& params() const { return params_; }
  const std::vector<RegressionTree>& trees() const { return trees_; }
  double base_score() const { return base_score_; }

 private:
  double raw_score(std::span<const double> x) const;

  GbtParams params_;
  int num_features_ = 0;
  double base_score_ = 0.0;
  std::vector<RegressionTree> trees_;
  std::vector<double> loss_;
};

}  // namespace mpicp::ml
