#include "ml/gbt.hpp"

#include <bit>
#include <cmath>
#include <cstdint>
#include <numeric>

#include "ml/io.hpp"
#include "support/error.hpp"
#include "support/stats.hpp"

namespace mpicp::ml {

namespace {

bool log_link(GbtObjective obj) { return obj != GbtObjective::kSquared; }

/// The exponentials of a raw score f that the log-link objectives use:
/// e^{-f} for Gamma; e^{(1-p)f} and e^{(2-p)f} for Tweedie.
struct ScoreExps {
  double a = 0.0;
  double b = 0.0;
};

ScoreExps score_exps(GbtObjective obj, double tweedie_p, double f) {
  switch (obj) {
    case GbtObjective::kSquared:
      return {};
    case GbtObjective::kGamma:
      return {std::exp(-f), 0.0};
    case GbtObjective::kTweedie:
      return {std::exp((1.0 - tweedie_p) * f),
              std::exp((2.0 - tweedie_p) * f)};
  }
  MPICP_RAISE_INTERNAL("unhandled GbtObjective");
}

/// Per-sample gradient/hessian of the objective at raw score f, and the
/// loss there: one evaluation of each exponential serves all three.
struct RowTerms {
  GradPair gh;
  double loss = 0.0;
};

RowTerms row_terms(GbtObjective obj, double tweedie_p, double y, double f,
                   const ScoreExps& e) {
  switch (obj) {
    case GbtObjective::kSquared:
      return {{f - y, 1.0}, 0.5 * (y - f) * (y - f)};
    case GbtObjective::kGamma: {
      // -2 log-lik (up to constants): g = 1 - y e^{-f}.
      const double ef = e.a;
      return {{1.0 - y * ef, y * ef}, y * ef + f};
    }
    case GbtObjective::kTweedie: {
      const double p = tweedie_p;
      const double a = e.a;
      const double b = e.b;
      return {{-y * a + b, (p - 1.0) * y * a + (2.0 - p) * b},
              -y * a / (1.0 - p) + b / (2.0 - p)};
    }
  }
  MPICP_RAISE_INTERNAL("unhandled GbtObjective");
}

}  // namespace

GradientBoostedTrees::GradientBoostedTrees(GbtParams params)
    : params_(params) {
  MPICP_REQUIRE(params_.rounds >= 1, "need at least one boosting round");
  MPICP_REQUIRE(params_.tweedie_p > 1.0 && params_.tweedie_p < 2.0,
                "tweedie power must lie in (1, 2)");
}

void GradientBoostedTrees::fit(const Matrix& x, std::span<const double> y) {
  MPICP_REQUIRE(x.rows() == y.size() && !y.empty(),
                "training data shape mismatch");
  if (log_link(params_.objective)) {
    for (const double v : y) {
      MPICP_REQUIRE(v > 0.0, "log-link objectives need positive targets");
    }
  }
  trees_.clear();
  loss_.clear();
  trees_.reserve(static_cast<std::size_t>(params_.rounds));
  loss_.reserve(static_cast<std::size_t>(params_.rounds));

  const double mean_y = support::mean(y);
  base_score_ =
      log_link(params_.objective) ? std::log(mean_y) : mean_y;

  const std::size_t n = x.rows();
  const int d = static_cast<int>(x.cols());
  num_features_ = d;
  const FeatureBinner binner(x);
  const std::vector<std::uint8_t> codes = binner.encode(x);

  std::vector<double> score(n, base_score_);
  std::vector<GradPair> gh(n);
  std::vector<int> leaf_of(n);
  std::vector<int> rows(n);

  TreeParams tree_params = params_.tree;
  tree_params.learning_rate = params_.learning_rate;

  RegressionTree::Scratch scratch;
  for (int round = 0; round < params_.rounds; ++round) {
    // Rows of one instance are adjacent and land in the same leaves, so
    // they share a score: a row whose score has the previous row's bits
    // reuses its exponentials, which are then the very values a fresh
    // evaluation would return. Any other row recomputes them.
    double total_loss = 0.0;
    ScoreExps e;
    for (std::size_t i = 0; i < n; ++i) {
      if (i == 0 || std::bit_cast<std::uint64_t>(score[i]) !=
                        std::bit_cast<std::uint64_t>(score[i - 1])) {
        e = score_exps(params_.objective, params_.tweedie_p, score[i]);
      }
      const RowTerms t =
          row_terms(params_.objective, params_.tweedie_p, y[i], score[i], e);
      gh[i] = t.gh;
      total_loss += t.loss;
    }
    loss_.push_back(total_loss / static_cast<double>(n));

    // The build permutes `rows`; every tree starts from row order.
    std::iota(rows.begin(), rows.end(), 0);
    RegressionTree tree;
    tree.fit(binner, codes, d, gh, rows, tree_params, scratch, leaf_of);
    // Every row landed in the leaf its walk would reach (the build's
    // `bin <= best_bin` is the walk's `x < threshold`), so the build's
    // record replaces a walk per row.
    const std::vector<RegressionTree::Node>& nodes = tree.nodes();
    for (std::size_t i = 0; i < n; ++i) score[i] += nodes[leaf_of[i]].value;
    trees_.push_back(std::move(tree));
  }
}

void GradientBoostedTrees::save(std::ostream& os) const {
  io::write_tag(os, "gbt");
  io::write_value(os, static_cast<int>(params_.objective));
  io::write_value(os, params_.tweedie_p);
  io::write_value(os, num_features_);
  io::write_value(os, base_score_);
  io::write_value(os, trees_.size());
  for (const RegressionTree& tree : trees_) tree.save(os);
}

void GradientBoostedTrees::load(std::istream& is) {
  io::expect_tag(is, "gbt");
  params_.objective = static_cast<GbtObjective>(io::read_value<int>(is));
  params_.tweedie_p = io::read_value<double>(is);
  num_features_ = io::read_value<int>(is);
  base_score_ = io::read_value<double>(is);
  const auto count = io::read_value<std::size_t>(is);
  MPICP_REQUIRE(count < (1u << 20), "implausible ensemble size");
  trees_.assign(count, RegressionTree{});
  for (RegressionTree& tree : trees_) tree.load(is);
  loss_.clear();
}

std::vector<double> GradientBoostedTrees::feature_importance() const {
  if (trees_.empty()) return {};
  std::vector<double> gains(num_features_, 0.0);
  for (const RegressionTree& tree : trees_) tree.accumulate_gains(gains);
  double total = 0.0;
  for (const double g : gains) total += g;
  if (total > 0.0) {
    for (double& g : gains) g /= total;
  }
  return gains;
}

double GradientBoostedTrees::raw_score(std::span<const double> x) const {
  double f = base_score_;
  for (const RegressionTree& tree : trees_) f += tree.predict_one(x);
  return f;
}

double GradientBoostedTrees::predict_one(std::span<const double> x) const {
  MPICP_REQUIRE(!trees_.empty(), "predicting with an unfitted model");
  const double f = raw_score(x);
  return log_link(params_.objective) ? std::exp(f) : f;
}

}  // namespace mpicp::ml
