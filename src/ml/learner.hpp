// Common regressor interface and factory.
//
// The paper's framework is learner-agnostic by design (§III, "Achieving
// Robustness and Applicability"): any regression method that predicts a
// positive running time from (m, n, N) plugs in. All learners here run
// with fixed default hyper-parameters — the paper deliberately performs
// no hyper-parameter tuning.
#pragma once

#include <cstddef>
#include <iosfwd>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "ml/matrix.hpp"

namespace mpicp::ml {

class Regressor {
 public:
  virtual ~Regressor() = default;

  /// Fit on features X (one row per sample) and positive targets y.
  virtual void fit(const Matrix& x, std::span<const double> y) = 0;

  /// Predict the target for one feature row.
  virtual double predict_one(std::span<const double> x) const = 0;

  /// The factory name of this learner ("xgboost", "knn", ...).
  virtual std::string name() const = 0;

  /// True when the fitted model reads rows of `width` features: its
  /// stored width, if any, is `width` and it reads no feature beyond.
  virtual bool accepts_width(std::size_t width) const = 0;

  /// Serialize the fitted model / restore it. The text format is
  /// self-describing per learner; use save_regressor/load_regressor for
  /// the polymorphic envelope.
  virtual void save(std::ostream& os) const = 0;
  virtual void load(std::istream& is) = 0;

  std::vector<double> predict(const Matrix& x) const;
};

/// Write a learner with a name header so load_regressor can rebuild it.
void save_regressor(std::ostream& os, const Regressor& model);
std::unique_ptr<Regressor> load_regressor(std::istream& is);

/// Learner names accepted by make_regressor (paper's three main learners
/// first, then the ones it evaluated and discarded, then the constant
/// median predictor — the selector's last-resort fit fallback).
inline constexpr const char* kLearnerNames[] = {"xgboost", "knn", "gam",
                                                "rf", "linear", "median"};

std::unique_ptr<Regressor> make_regressor(const std::string& name);

}  // namespace mpicp::ml
