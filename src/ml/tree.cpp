#include "ml/tree.hpp"

#include <algorithm>
#include <cmath>

#include "ml/io.hpp"
#include "support/error.hpp"

namespace mpicp::ml {

FeatureBinner::FeatureBinner(const Matrix& x, int max_bins) {
  MPICP_REQUIRE(max_bins >= 2 && max_bins <= 256, "unsupported bin count");
  const std::size_t n = x.rows();
  const std::size_t d = x.cols();
  MPICP_REQUIRE(n >= 1, "cannot bin an empty matrix");
  edges_.resize(d);
  std::vector<double> col(n);
  for (std::size_t f = 0; f < d; ++f) {
    for (std::size_t i = 0; i < n; ++i) col[i] = x(i, f);
    std::sort(col.begin(), col.end());
    col.erase(std::unique(col.begin(), col.end()), col.end());
    std::vector<double>& e = edges_[f];
    if (static_cast<int>(col.size()) <= max_bins) {
      // Lossless: one bin per distinct value, edges at midpoints.
      e.reserve(col.size() - 1);
      for (std::size_t i = 0; i + 1 < col.size(); ++i) {
        e.push_back(0.5 * (col[i] + col[i + 1]));
      }
    } else {
      // Quantile edges.
      e.reserve(static_cast<std::size_t>(max_bins) - 1);
      for (int b = 1; b < max_bins; ++b) {
        const std::size_t pos =
            b * (col.size() - 1) / static_cast<std::size_t>(max_bins);
        const double edge = 0.5 * (col[pos] + col[pos + 1]);
        if (e.empty() || edge > e.back()) e.push_back(edge);
      }
    }
  }
}

std::uint8_t FeatureBinner::bin_of(int f, double value) const {
  const auto& e = edges_[f];
  const auto it = std::upper_bound(e.begin(), e.end(), value);
  return static_cast<std::uint8_t>(it - e.begin());
}

std::vector<std::uint8_t> FeatureBinner::encode(const Matrix& x) const {
  MPICP_REQUIRE(static_cast<int>(x.cols()) == num_features(),
                "feature count mismatch");
  std::vector<std::uint8_t> codes(x.rows() * x.cols());
  for (std::size_t i = 0; i < x.rows(); ++i) {
    for (std::size_t f = 0; f < x.cols(); ++f) {
      codes[i * x.cols() + f] = bin_of(static_cast<int>(f), x(i, f));
    }
  }
  return codes;
}

/// What every node of one tree's growth shares.
struct RegressionTree::Grow {
  const FeatureBinner& binner;
  std::span<const std::uint8_t> codes;
  int num_features;
  std::span<const GradPair> gh;
  const TreeParams& params;
  Scratch& scratch;
  std::span<int> leaf_of;
  bool runs;  ///< fill histograms run by run
};

void RegressionTree::fit(const FeatureBinner& binner,
                         std::span<const std::uint8_t> codes,
                         int num_features, std::span<const GradPair> gh,
                         std::vector<int> rows, const TreeParams& params) {
  Scratch scratch;
  fit(binner, codes, num_features, gh, std::span<int>(rows), params,
      scratch);
}

void RegressionTree::fit(const FeatureBinner& binner,
                         std::span<const std::uint8_t> codes,
                         int num_features, std::span<const GradPair> gh,
                         std::span<int> rows, const TreeParams& params,
                         Scratch& scratch, std::span<int> leaf_of) {
  MPICP_REQUIRE(!rows.empty(), "cannot fit a tree on zero rows");
  nodes_.clear();
  if (scratch.staged.size() < rows.size()) {
    scratch.staged.resize(rows.size());
  }
  // Whether most rows repeat the previous row's codes, as an instance's
  // repetitions do in a dataset read in grid order; the first rows
  // decide. Only then does the split search sum each run of one bin in
  // registers: on rows in random order (bootstrap samples, CV folds,
  // stream windows) its run test would mispredict. Both fills add in
  // row order, so the choice never changes a bit.
  const std::size_t probe = std::min<std::size_t>(rows.size(), 256);
  std::size_t repeats = 0;
  const auto row_codes = [&](int i) {
    return codes.subspan(static_cast<std::size_t>(i) * num_features,
                         static_cast<std::size_t>(num_features));
  };
  for (std::size_t k = 1; k < probe; ++k) {
    if (std::ranges::equal(row_codes(rows[k]), row_codes(rows[k - 1]))) {
      ++repeats;
    }
  }
  const bool runs = 2 * repeats >= probe;
  const Grow grow{binner, codes, num_features, gh,
                  params, scratch, leaf_of, runs};
  build(grow, rows, 0);
}

int RegressionTree::build(const Grow& grow, std::span<int> rows,
                          int depth) {
  const TreeParams& params = grow.params;
  const int num_features = grow.num_features;
  const std::span<const std::uint8_t> codes = grow.codes;
  const std::span<const GradPair> gh = grow.gh;
  const auto make_leaf = [&](int node) {
    if (!grow.leaf_of.empty()) {
      for (const int i : rows) grow.leaf_of[i] = node;
    }
    return node;
  };
  double g_sum = 0.0;
  double h_sum = 0.0;
  for (const int i : rows) {
    g_sum += gh[i].g;
    h_sum += gh[i].h;
  }
  const int node_idx = static_cast<int>(nodes_.size());
  nodes_.emplace_back();
  nodes_[node_idx].value =
      params.learning_rate * (-g_sum / (h_sum + params.lambda));

  if (depth >= params.max_depth || rows.size() < 2) {
    return make_leaf(node_idx);
  }

  // Histogram split search.
  const double parent_score = g_sum * g_sum / (h_sum + params.lambda);
  int best_feature = -1;
  int best_bin = -1;
  double best_gain = params.min_gain;
  // `hist` is the fit-wide scratch buffer: assign() below reuses its
  // capacity, so the whole tree (and ensemble) shares one allocation.
  std::vector<GradPair>& hist = grow.scratch.hist;
  for (int f = 0; f < num_features; ++f) {
    const int nbins = grow.binner.num_bins(f);
    if (nbins < 2) continue;
    hist.assign(nbins, GradPair{});
    const auto code_of = [&](int i) {
      return codes[static_cast<std::size_t>(i) * num_features + f];
    };
    if (grow.runs) {
      // A run of rows in one bin sums in registers: the bin's additions,
      // in row order, without a store and reload between them.
      std::uint8_t cur = code_of(rows[0]);
      GradPair acc;
      for (const int i : rows) {
        const std::uint8_t b = code_of(i);
        if (b != cur) {
          hist[cur] = acc;
          cur = b;
          acc = hist[b];
        }
        acc.g += gh[i].g;
        acc.h += gh[i].h;
      }
      hist[cur] = acc;
    } else {
      for (const int i : rows) {
        GradPair& bin = hist[code_of(i)];
        bin.g += gh[i].g;
        bin.h += gh[i].h;
      }
    }
    double gl = 0.0;
    double hl = 0.0;
    for (int b = 0; b + 1 < nbins; ++b) {
      gl += hist[b].g;
      hl += hist[b].h;
      const double hr = h_sum - hl;
      if (hl < params.min_child_weight || hr < params.min_child_weight) {
        continue;
      }
      const double gr = g_sum - gl;
      const double gain = gl * gl / (hl + params.lambda) +
                          gr * gr / (hr + params.lambda) - parent_score;
      if (gain > best_gain) {
        best_gain = gain;
        best_feature = f;
        best_bin = b;
      }
    }
  }
  if (best_feature < 0) return make_leaf(node_idx);

  // Stable partition in place: left rows move to the front in their
  // order, right rows wait in the staging area and follow them. Every
  // row is written to both places and only the count of its side
  // advances, so rows in random order cost no mispredicted branch.
  std::span<int> staged(grow.scratch.staged);
  std::size_t num_left = 0;
  std::size_t num_right = 0;
  for (const int i : rows) {
    const auto left = static_cast<std::size_t>(
        codes[static_cast<std::size_t>(i) * num_features + best_feature] <=
        best_bin);
    rows[num_left] = i;
    staged[num_right] = i;
    num_left += left;
    num_right += 1 - left;
  }
  std::copy_n(staged.begin(), num_right, rows.begin() + num_left);

  nodes_[node_idx].feature = best_feature;
  nodes_[node_idx].threshold = grow.binner.edge(best_feature, best_bin);
  nodes_[node_idx].gain = best_gain;
  const int left = build(grow, rows.first(num_left), depth + 1);
  const int right = build(grow, rows.subspan(num_left), depth + 1);
  nodes_[node_idx].left = left;
  nodes_[node_idx].right = right;
  return node_idx;
}

double RegressionTree::predict_one(std::span<const double> x) const {
  MPICP_ASSERT(!nodes_.empty(), "predicting with an unfitted tree");
  int cur = 0;
  while (nodes_[cur].feature >= 0) {
    cur = x[nodes_[cur].feature] < nodes_[cur].threshold
              ? nodes_[cur].left
              : nodes_[cur].right;
  }
  return nodes_[cur].value;
}

void RegressionTree::accumulate_gains(std::span<double> gains) const {
  for (const Node& node : nodes_) {
    if (node.feature >= 0 &&
        node.feature < static_cast<int>(gains.size())) {
      gains[node.feature] += node.gain;
    }
  }
}

bool splits_below(std::span<const RegressionTree> trees, std::size_t width) {
  return std::ranges::all_of(trees, [width](const RegressionTree& tree) {
    return std::ranges::all_of(tree.nodes(), [width](const auto& n) {
      return n.feature < static_cast<std::int64_t>(width);  // a leaf is -1
    });
  });
}

void RegressionTree::save(std::ostream& os) const {
  io::write_tag(os, "tree");
  io::write_value(os, nodes_.size());
  for (const Node& n : nodes_) {
    io::write_value(os, n.feature);
    io::write_value(os, n.threshold);
    io::write_value(os, n.left);
    io::write_value(os, n.right);
    io::write_value(os, n.value);
    io::write_value(os, n.gain);
  }
}

void RegressionTree::load(std::istream& is) {
  io::expect_tag(is, "tree");
  const auto count = io::read_value<std::size_t>(is);
  MPICP_REQUIRE(count < (1u << 26), "implausible tree size");
  nodes_.assign(count, Node{});
  for (Node& n : nodes_) {
    n.feature = io::read_value<int>(is);
    n.threshold = io::read_value<double>(is);
    n.left = io::read_value<int>(is);
    n.right = io::read_value<int>(is);
    n.value = io::read_value<double>(is);
    n.gain = io::read_value<double>(is);
  }
}

int RegressionTree::depth() const {
  // Depth via recomputation (nodes are in preorder).
  std::vector<int> depth_of(nodes_.size(), 0);
  int max_depth = 0;
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    if (nodes_[i].feature >= 0) {
      depth_of[nodes_[i].left] = depth_of[i] + 1;
      depth_of[nodes_[i].right] = depth_of[i] + 1;
      max_depth = std::max(max_depth, depth_of[i] + 1);
    }
  }
  return max_depth;
}

}  // namespace mpicp::ml
