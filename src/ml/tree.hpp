// Histogram-based regression trees (the shared engine of the gradient
// boosting and random forest learners).
//
// Features are pre-binned into at most `max_bins` quantile bins; split
// finding then scans bin histograms of (gradient, hessian) sums — the
// same approach XGBoost's `hist` method and LightGBM use. With the
// paper's feature space (message size, nodes, ppn — each with ~10
// distinct values) the binning is lossless, so splits are exact.
#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <span>
#include <vector>

#include "ml/matrix.hpp"

namespace mpicp::ml {

struct GradPair {
  double g = 0.0;
  double h = 0.0;
};

/// Per-feature quantile binner.
class FeatureBinner {
 public:
  FeatureBinner(const Matrix& x, int max_bins = 32);

  int num_features() const { return static_cast<int>(edges_.size()); }
  int num_bins(int f) const {
    return static_cast<int>(edges_[f].size()) + 1;
  }
  /// Split threshold between bin b and b+1 of feature f.
  double edge(int f, int b) const { return edges_[f][b]; }

  std::uint8_t bin_of(int f, double value) const;

  /// Bin codes for every (row, feature) of x, row-major.
  std::vector<std::uint8_t> encode(const Matrix& x) const;

 private:
  std::vector<std::vector<double>> edges_;  // ascending upper edges
};

struct TreeParams {
  int max_depth = 6;
  double lambda = 1.0;            ///< L2 regularization on leaf weights
  double min_child_weight = 1.0;  ///< minimum hessian sum per child
  double min_gain = 0.0;
  double learning_rate = 1.0;     ///< scales leaf weights
};

/// One fitted regression tree. Leaf values are the XGBoost weights
/// -G / (H + lambda), scaled by the learning rate.
class RegressionTree {
 public:
  struct Node {
    int feature = -1;  ///< -1: leaf
    double threshold = 0.0;
    int left = -1;
    int right = -1;
    double value = 0.0;
    double gain = 0.0;  ///< split gain (internal nodes)
  };

  /// Buffers an ensemble fit reuses across its trees: the split-search
  /// histogram and the staging area of the row partition. Once they
  /// have reached their size, a tree allocates only its own nodes.
  struct Scratch {
    std::vector<GradPair> hist;
    std::vector<int> staged;
  };

  /// Fit on binned rows. `rows` selects the training subset (with
  /// repetitions allowed, for bagging).
  void fit(const FeatureBinner& binner,
           std::span<const std::uint8_t> codes, int num_features,
           std::span<const GradPair> gh, std::vector<int> rows,
           const TreeParams& params);

  /// As above, but grows the tree inside `rows`, which it leaves
  /// permuted, and in `scratch`. When `leaf_of` is non-empty, leaf_of[i]
  /// receives the index of the leaf each row i of `rows` landed in: the
  /// leaf predict_one reaches for that row, since a row goes left iff
  /// its bin code is at most the split's bin, i.e. iff its value lies
  /// below the split's edge.
  void fit(const FeatureBinner& binner,
           std::span<const std::uint8_t> codes, int num_features,
           std::span<const GradPair> gh, std::span<int> rows,
           const TreeParams& params, Scratch& scratch,
           std::span<int> leaf_of = {});

  double predict_one(std::span<const double> x) const;

  int num_nodes() const { return static_cast<int>(nodes_.size()); }
  int depth() const;

  /// Accumulate per-feature split gains into `gains` (size = number of
  /// features) — the standard "gain" feature-importance measure.
  void accumulate_gains(std::span<double> gains) const;

  void save(std::ostream& os) const;
  void load(std::istream& is);

  /// Preorder node pool (index 0 is the root) — the compiled bank lowers
  /// from this representation.
  const std::vector<Node>& nodes() const { return nodes_; }

 private:
  struct Grow;
  int build(const Grow& grow, std::span<int> rows, int depth);

  std::vector<Node> nodes_;
};

/// True when every split of every tree reads a feature below `width`.
bool splits_below(std::span<const RegressionTree> trees, std::size_t width);

}  // namespace mpicp::ml
