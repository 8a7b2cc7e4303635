#include "ml/forest.hpp"

#include <cmath>

#include "ml/io.hpp"
#include "support/error.hpp"
#include "support/rng.hpp"

namespace mpicp::ml {

RandomForest::RandomForest(ForestParams params) : params_(params) {
  MPICP_REQUIRE(params_.num_trees >= 1, "need at least one tree");
}

void RandomForest::fit(const Matrix& x, std::span<const double> y) {
  MPICP_REQUIRE(x.rows() == y.size() && !y.empty(),
                "training data shape mismatch");
  const std::size_t n = x.rows();
  const int d = static_cast<int>(x.cols());
  const FeatureBinner binner(x);
  const std::vector<std::uint8_t> codes = binner.encode(x);

  // Fitting a tree to targets t via gradient pairs (g = -t, h = 1) makes
  // every leaf the mean of its samples and every split the best variance
  // reduction — a plain CART regression tree.
  std::vector<GradPair> gh(n);
  for (std::size_t i = 0; i < n; ++i) {
    double t = y[i];
    if (params_.log_target) {
      MPICP_REQUIRE(t > 0.0, "log target needs positive values");
      t = std::log(t);
    }
    gh[i] = {-t, 1.0};
  }

  TreeParams tree_params;
  tree_params.max_depth = params_.max_depth;
  tree_params.lambda = 0.0;
  tree_params.min_child_weight = 1.0;

  support::Xoshiro256 rng(params_.seed);
  const auto sample_size = static_cast<std::size_t>(
      params_.row_fraction * static_cast<double>(n));
  trees_.clear();
  trees_.reserve(static_cast<std::size_t>(params_.num_trees));
  RegressionTree::Scratch scratch;
  std::vector<int> rows;
  rows.reserve(std::max<std::size_t>(sample_size, 1));
  for (int t = 0; t < params_.num_trees; ++t) {
    rows.assign(std::max<std::size_t>(sample_size, 1), 0);
    for (auto& r : rows) {
      r = static_cast<int>(rng.uniform_int(n));  // bootstrap
    }
    RegressionTree tree;
    tree.fit(binner, codes, d, gh, rows, tree_params, scratch);
    trees_.push_back(std::move(tree));
  }
}

void RandomForest::save(std::ostream& os) const {
  io::write_tag(os, "rf");
  io::write_value(os, params_.log_target ? 1 : 0);
  io::write_value(os, trees_.size());
  for (const RegressionTree& tree : trees_) tree.save(os);
}

void RandomForest::load(std::istream& is) {
  io::expect_tag(is, "rf");
  params_.log_target = io::read_value<int>(is) != 0;
  const auto count = io::read_value<std::size_t>(is);
  MPICP_REQUIRE(count < (1u << 16), "implausible forest size");
  trees_.assign(count, RegressionTree{});
  for (RegressionTree& tree : trees_) tree.load(is);
}

double RandomForest::predict_one(std::span<const double> x) const {
  MPICP_REQUIRE(!trees_.empty(), "predicting with an unfitted model");
  double acc = 0.0;
  for (const RegressionTree& tree : trees_) acc += tree.predict_one(x);
  acc /= static_cast<double>(trees_.size());
  return params_.log_target ? std::exp(acc) : acc;
}

}  // namespace mpicp::ml
