// K-nearest-neighbor regression (the paper's KNN learner).
//
// K = 5, z-scaled inputs, Euclidean distance, mean of the neighbors'
// targets — exactly the caret defaults the paper relies on. A query
// scans every scaled training point: this is the reference that the
// compiled bank's grid search (ml/flatten.hpp) is tested against.
//
// Tie rule: the neighbours are the k smallest training rows by
// (squared scaled distance, row index), and their targets are summed in
// that ascending order. The answer is therefore a function of the
// training multiset alone, and the grid search returns the same bits.
#pragma once

#include <span>
#include <vector>

#include "ml/learner.hpp"

namespace mpicp::ml {

/// Squared Euclidean distance, summed left to right over the features.
/// The one distance every KNN search path uses, so equal coordinates
/// give equal bits wherever they are compared.
inline double sq_dist(std::span<const double> a, std::span<const double> b) {
  double acc = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    acc += (a[i] - b[i]) * (a[i] - b[i]);
  }
  return acc;
}

/// Per-feature standardization to zero mean / unit variance.
class StandardScaler {
 public:
  void fit(const Matrix& x);
  std::vector<double> transform(std::span<const double> row) const;
  bool fitted() const { return !mean_.empty(); }
  void save(std::ostream& os) const;
  void load(std::istream& is);

  const std::vector<double>& mean() const { return mean_; }
  const std::vector<double>& inv_std() const { return inv_std_; }

 private:
  std::vector<double> mean_;
  std::vector<double> inv_std_;
};

struct KnnParams {
  int k = 5;
  bool scale_inputs = true;
};

class KnnRegressor final : public Regressor {
 public:
  explicit KnnRegressor(KnnParams params = {});

  void fit(const Matrix& x, std::span<const double> y) override;
  double predict_one(std::span<const double> x) const override;
  std::string name() const override { return "knn"; }
  bool accepts_width(std::size_t width) const override;
  void save(std::ostream& os) const override;
  void load(std::istream& is) override;

  // Introspection for the compiled bank's lowering pass.
  const KnnParams& params() const { return params_; }
  const StandardScaler& scaler() const { return scaler_; }
  const Matrix& points() const { return points_; }
  const std::vector<double>& targets() const { return targets_; }

 private:
  double query(std::span<const double> scaled) const;

  KnnParams params_;
  StandardScaler scaler_;
  Matrix points_;  // scaled training points
  std::vector<double> targets_;
};

}  // namespace mpicp::ml
