#include "ml/flatten.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <utility>

#include "ml/forest.hpp"
#include "ml/gam.hpp"
#include "ml/gbt.hpp"
#include "ml/io.hpp"
#include "ml/knn.hpp"
#include "ml/linreg.hpp"
#include "ml/median.hpp"
#include "support/error.hpp"
#include "support/reserve.hpp"

namespace mpicp::ml {

namespace {

/// Bitwise double equality — the dedup criterion for shared spline
/// bases. Two bases with bit-identical (lo, hi) and the same size
/// evaluate to bit-identical values at every x, so sharing them cannot
/// perturb predictions.
bool same_bits(double a, double b) {
  std::uint64_t ua = 0;
  std::uint64_t ub = 0;
  std::memcpy(&ua, &a, sizeof(ua));
  std::memcpy(&ub, &b, sizeof(ub));
  return ua == ub;
}

double sq_dist(std::span<const double> a, std::span<const double> b) {
  double acc = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    acc += (a[i] - b[i]) * (a[i] - b[i]);
  }
  return acc;
}

/// Max-heap of (distance, index) capped at k elements — identical to
/// the interpreted KNN's helper so neighbor sets and their in-heap
/// iteration order match exactly.
void heap_offer(std::vector<std::pair<double, int>>& heap, std::size_t k,
                double dist, int idx) {
  if (heap.size() < k) {
    heap.emplace_back(dist, idx);
    std::push_heap(heap.begin(), heap.end());
  } else if (dist < heap.front().first) {
    std::pop_heap(heap.begin(), heap.end());
    heap.back() = {dist, idx};
    std::push_heap(heap.begin(), heap.end());
  }
}

}  // namespace

int FlatBank::add(const Regressor& model) {
  const int idx = static_cast<int>(models_.size());
  FlatModel m;
  if (const auto* gbt = dynamic_cast<const GradientBoostedTrees*>(&model)) {
    MPICP_REQUIRE(!gbt->trees().empty(), "compiling an unfitted model");
    m.kind = FlatKind::kTreeEnsemble;
    m.exp_link = gbt->params().objective != GbtObjective::kSquared;
    m.base_score = gbt->base_score();
    m.mean_over_trees = false;
    lower_trees(gbt->trees(), m);
  } else if (const auto* rf = dynamic_cast<const RandomForest*>(&model)) {
    MPICP_REQUIRE(!rf->trees().empty(), "compiling an unfitted model");
    m.kind = FlatKind::kTreeEnsemble;
    m.exp_link = rf->params().log_target;
    m.base_score = 0.0;
    m.mean_over_trees = true;
    lower_trees(rf->trees(), m);
  } else if (const auto* knn = dynamic_cast<const KnnRegressor*>(&model)) {
    MPICP_REQUIRE(!knn->targets().empty(), "compiling an unfitted model");
    lower_knn(*knn, m);
  } else if (const auto* gam = dynamic_cast<const GamRegressor*>(&model)) {
    MPICP_REQUIRE(!gam->beta().empty(), "compiling an unfitted model");
    lower_gam(*gam, m);
  } else if (const auto* lin = dynamic_cast<const LinearRegressor*>(&model)) {
    MPICP_REQUIRE(!lin->coefficients().empty(),
                  "compiling an unfitted model");
    m.kind = FlatKind::kLinear;
    m.exp_link = lin->log_target();
    m.coef_begin = static_cast<int>(coef_.size());
    m.coef_len = static_cast<int>(lin->coefficients().size());
    coef_.insert(coef_.end(), lin->coefficients().begin(),
                 lin->coefficients().end());
  } else if (const auto* med = dynamic_cast<const MedianRegressor*>(&model)) {
    m.kind = FlatKind::kConstant;
    m.coef_begin = static_cast<int>(coef_.size());
    m.coef_len = 1;
    coef_.push_back(med->value());
  } else {
    MPICP_RAISE_ARG("cannot compile learner '" + model.name() + "'");
  }
  models_.push_back(m);
  // Canonical and derived pools are both append-only in model order, so
  // only the new model's blocked prefixes and rank-cell table need
  // deriving: add() costs what lowering the one model costs.
  build_derived(models_.size() - 1);
  return idx;
}

void FlatBank::build_derived(std::size_t first_model) {
  if (first_model == 0) {
    blk_tree_levels_.clear();
    blk_spill_.clear();
    blk_base_.clear();
    blk_exit_base_.clear();
    blk_thr_.clear();
    blk_feat_.clear();
    blk_exit_.clear();
    blk_leaf_.clear();
  }
  blk_tree_levels_.resize(tree_roots_.size(), 0);
  blk_spill_.resize(tree_roots_.size(), 0);
  blk_base_.resize(tree_roots_.size(), 0);
  blk_exit_base_.resize(tree_roots_.size(), 0);
  // (node, depth) DFS stack and the slot→node assignment of one block,
  // hoisted out of the per-tree loops.
  std::vector<std::pair<std::int32_t, int>> stack;
  stack.reserve(64);
  std::vector<std::int32_t> assign;
  for (std::size_t mi = first_model; mi < models_.size(); ++mi) {
    const FlatModel& m = models_[mi];
    if (m.kind != FlatKind::kTreeEnsemble) continue;
    for (int t = m.tree_begin; t < m.tree_end; ++t) {
      // Blocked levels for this tree: its own deepest comparison
      // level, capped — shallow trees never walk padding levels.
      int levels = 0;
      stack.clear();
      stack.push_back({tree_roots_[t], 0});
      while (!stack.empty()) {
        const auto [n, d] = stack.back();
        stack.pop_back();
        if (nodes_[n].feature < 0) continue;
        levels = std::max(levels, d + 1);
        if (levels >= block_depth_cap_) {
          levels = block_depth_cap_;
          break;
        }
        stack.push_back({nodes_[n].left, d + 1});
        stack.push_back({nodes_[n].right, d + 1});
      }
      blk_tree_levels_[t] = levels;
      const std::size_t inner = (std::size_t{1} << levels) - 1;
      const std::size_t exits = std::size_t{1} << levels;
      assign.assign(inner + exits, -1);
      blk_base_[t] = static_cast<std::int32_t>(blk_thr_.size());
      blk_exit_base_[t] = static_cast<std::int32_t>(blk_exit_.size());
      blk_thr_.resize(blk_thr_.size() + inner);
      blk_feat_.resize(blk_feat_.size() + inner);
      blk_exit_.resize(blk_exit_.size() + exits);
      blk_leaf_.resize(blk_leaf_.size() + exits);
      double* thr = blk_thr_.data() + blk_base_[t];
      std::int32_t* ft = blk_feat_.data() + blk_base_[t];
      std::int32_t* ex = blk_exit_.data() + blk_exit_base_[t];
      double* leaf = blk_leaf_.data() + blk_exit_base_[t];
      assign[0] = tree_roots_[t];
      for (std::size_t s = 0; s < inner; ++s) {
        const std::int32_t n = assign[s];
        const FlatTreeNode& node = nodes_[n];
        if (node.feature >= 0) {
          ft[s] = node.feature;
          thr[s] = node.threshold;
          assign[2 * s + 1] = node.left;
          assign[2 * s + 2] = node.right;
        } else {
          // Pass-through slot for a leaf shallower than the block: both
          // children route to the same leaf, so the predicated step can
          // take either branch (even on a NaN feature) and still land
          // on the node the plain tree walk stops at.
          ft[s] = 0;
          thr[s] = std::numeric_limits<double>::infinity();
          assign[2 * s + 1] = n;
          assign[2 * s + 2] = n;
        }
      }
      bool spill = false;
      for (std::size_t e = 0; e < exits; ++e) {
        ex[e] = assign[inner + e];
        const FlatTreeNode& node = nodes_[ex[e]];
        // Spill-free exits carry the leaf value inline, so the hot
        // walk finishes with one load instead of a node-pool visit.
        leaf[e] = node.value;
        spill = spill || node.feature >= 0;
      }
      blk_spill_[t] = spill ? 1 : 0;
    }
  }
  build_rank_tables(first_model);
}

void FlatBank::build_rank_tables(std::size_t first_model) {
  if (first_model == 0) {
    rank_tables_.clear();
    rank_thr_.clear();
    cell_val_.clear();
  }
  rank_tables_.resize(models_.size());
  std::vector<std::vector<double>> per_feat(kMaxRankFeatures);
  std::vector<std::int32_t> node_rank;
  std::vector<std::int32_t> ranks;
  for (std::size_t mi = first_model; mi < models_.size(); ++mi) {
    const FlatModel& m = models_[mi];
    if (m.kind != FlatKind::kTreeEnsemble) continue;
    // The model's nodes are one contiguous pool range (lower_trees
    // appends tree after tree), bounded by the next tree root.
    const int node_begin = tree_roots_[m.tree_begin];
    const int node_end =
        static_cast<std::size_t>(m.tree_end) < tree_roots_.size()
            ? tree_roots_[m.tree_end]
            : static_cast<int>(nodes_.size());
    // Distinct thresholds per feature, sorted; bail out on any shape
    // the table cannot represent exactly (the blocked walk serves it).
    RankTable& rt = rank_tables_[mi];
    for (auto& v : per_feat) v.clear();
    bool representable = true;
    int dim = 0;
    for (int n = node_begin; n < node_end && representable; ++n) {
      const FlatTreeNode& node = nodes_[n];
      if (node.feature < 0) continue;
      if (node.feature >= kMaxRankFeatures ||
          std::isnan(node.threshold)) {
        representable = false;
        break;
      }
      dim = std::max(dim, node.feature + 1);
      // mpicp-lint: allow(no-alloc-in-loop) cold lowering path; the
      // per-feature split is unknowable before this very scan.
      per_feat[node.feature].push_back(node.threshold);
    }
    if (!representable) continue;
    std::size_t cells = 1;
    for (int f = 0; f < dim; ++f) {
      auto& v = per_feat[f];
      std::sort(v.begin(), v.end());
      v.erase(std::unique(v.begin(), v.end()), v.end());
      cells *= v.size() + 1;
      if (cells > kMaxRankCells) {
        representable = false;
        break;
      }
    }
    if (!representable) continue;
    rt.dim = dim;
    std::size_t stride = 1;
    for (int f = 0; f < dim; ++f) {
      rt.thr_begin[f] = static_cast<std::int32_t>(rank_thr_.size());
      rt.thr_len[f] = static_cast<std::int32_t>(per_feat[f].size());
      rt.stride[f] = static_cast<std::int32_t>(stride);
      stride *= per_feat[f].size() + 1;
      rank_thr_.insert(rank_thr_.end(), per_feat[f].begin(),
                       per_feat[f].end());
    }
    // Per-node threshold rank (index of its threshold in the feature's
    // sorted strip), so the cell walks below are pure integer compares.
    node_rank.assign(static_cast<std::size_t>(node_end - node_begin), -1);
    for (int n = node_begin; n < node_end; ++n) {
      const FlatTreeNode& node = nodes_[n];
      if (node.feature < 0) continue;
      const auto& v = per_feat[node.feature];
      node_rank[n - node_begin] = static_cast<std::int32_t>(
          std::lower_bound(v.begin(), v.end(), node.threshold) - v.begin());
    }
    // Enumerate cells in stride order. A cell's rank vector fixes the
    // outcome of every comparison (`x < T[j]` iff `rank(x) <= j`), so
    // walking each tree with those outcomes — in canonical tree order,
    // with the same accumulation and link transform as the interpreted
    // predict_one — yields the exact double every instance in the cell
    // would get.
    rt.cells_begin = static_cast<std::int64_t>(cell_val_.size());
    support::reserve_more(cell_val_, cells);
    ranks.assign(static_cast<std::size_t>(std::max(dim, 1)), 0);
    const double num_trees = static_cast<double>(m.tree_end - m.tree_begin);
    for (std::size_t c = 0; c < cells; ++c) {
      double raw = m.base_score;
      for (int t = m.tree_begin; t < m.tree_end; ++t) {
        int cur = tree_roots_[t];
        while (nodes_[cur].feature >= 0) {
          cur = ranks[nodes_[cur].feature] <= node_rank[cur - node_begin]
                    ? nodes_[cur].left
                    : nodes_[cur].right;
        }
        raw += nodes_[cur].value;
      }
      if (m.mean_over_trees) raw /= num_trees;
      cell_val_.push_back(m.exp_link ? std::exp(raw) : raw);
      for (int f = 0; f < dim; ++f) {
        if (++ranks[f] <= rt.thr_len[f]) break;
        ranks[f] = 0;
      }
    }
    rt.built = true;
  }
}

void FlatBank::lower_trees(const std::vector<RegressionTree>& trees,
                           FlatModel& m) {
  m.tree_begin = static_cast<int>(tree_roots_.size());
  support::reserve_more(tree_roots_, trees.size());
  for (const RegressionTree& tree : trees) {
    const int base = static_cast<int>(nodes_.size());
    tree_roots_.push_back(base);
    const auto& src = tree.nodes();
    support::reserve_more(nodes_, src.size());
    for (const RegressionTree::Node& n : src) {
      FlatTreeNode fn;
      fn.feature = n.feature;
      fn.threshold = n.threshold;
      fn.left = n.left >= 0 ? n.left + base : -1;
      fn.right = n.right >= 0 ? n.right + base : -1;
      fn.value = n.value;
      nodes_.push_back(fn);
    }
  }
  m.tree_end = static_cast<int>(tree_roots_.size());
}

void FlatBank::lower_knn(const KnnRegressor& knn, FlatModel& m) {
  const Matrix& pts = knn.points();
  m.kind = FlatKind::kKnn;
  m.exp_link = false;
  m.k = knn.params().k;
  m.num_points = static_cast<int>(pts.rows());
  m.point_dim = static_cast<int>(pts.cols());
  m.points_begin = static_cast<int>(points_.size());
  support::reserve_more(points_, pts.rows() * pts.cols());
  for (std::size_t i = 0; i < pts.rows(); ++i) {
    const auto row = pts.row(i);
    points_.insert(points_.end(), row.begin(), row.end());
  }
  m.targets_begin = static_cast<int>(targets_.size());
  targets_.insert(targets_.end(), knn.targets().begin(),
                  knn.targets().end());
  m.order_begin = static_cast<int>(order_.size());
  order_.insert(order_.end(), knn.order().begin(), knn.order().end());
  if (knn.params().use_kdtree && !knn.kd().empty()) {
    const int kd_base = static_cast<int>(kd_.size());
    support::reserve_more(kd_, knn.kd().size());
    for (const KnnRegressor::KdNode& n : knn.kd()) {
      FlatKdNode fn;
      fn.axis = n.axis;
      fn.split = n.split;
      fn.left = n.left >= 0 ? n.left + kd_base : -1;
      fn.right = n.right >= 0 ? n.right + kd_base : -1;
      fn.begin = n.begin;
      fn.end = n.end;
      kd_.push_back(fn);
    }
    m.kd_root = kd_base;
  } else {
    m.kd_root = -1;
  }
  if (knn.params().scale_inputs) {
    m.scaler_begin = static_cast<int>(scaler_mean_.size());
    scaler_mean_.insert(scaler_mean_.end(), knn.scaler().mean().begin(),
                        knn.scaler().mean().end());
    scaler_inv_std_.insert(scaler_inv_std_.end(),
                           knn.scaler().inv_std().begin(),
                           knn.scaler().inv_std().end());
  } else {
    m.scaler_begin = -1;
  }
  max_point_dim_ = std::max(max_point_dim_, m.point_dim);
  max_k_ = std::max(max_k_, m.k);
}

int FlatBank::intern_basis(const BSplineBasis& basis) {
  for (std::size_t i = 0; i < bases_.size(); ++i) {
    if (bases_[i].num_basis() == basis.num_basis() &&
        same_bits(bases_[i].lo(), basis.lo()) &&
        same_bits(bases_[i].hi(), basis.hi())) {
      return static_cast<int>(i);
    }
  }
  bases_.push_back(basis);
  return static_cast<int>(bases_.size()) - 1;
}

int FlatBank::intern_slot(int basis, int feature) {
  for (std::size_t i = 0; i < slots_.size(); ++i) {
    if (slots_[i].basis == basis && slots_[i].feature == feature) {
      return static_cast<int>(i);
    }
  }
  slots_.push_back({basis, feature});
  return static_cast<int>(slots_.size()) - 1;
}

void FlatBank::lower_gam(const GamRegressor& gam, FlatModel& m) {
  m.kind = FlatKind::kGam;
  m.exp_link = true;
  m.num_bases = static_cast<int>(gam.bases().size());
  m.basis_size = gam.params().basis_per_feature;
  m.slot_begin = static_cast<int>(gam_slots_.size());
  support::reserve_more(gam_slots_, gam.bases().size());
  for (std::size_t f = 0; f < gam.bases().size(); ++f) {
    const int bid = intern_basis(gam.bases()[f]);
    gam_slots_.push_back(intern_slot(bid, static_cast<int>(f)));
  }
  m.coef_begin = static_cast<int>(coef_.size());
  m.coef_len = static_cast<int>(gam.beta().size());
  coef_.insert(coef_.end(), gam.beta().begin(), gam.beta().end());
  max_basis_size_ = std::max(max_basis_size_, m.basis_size);
}

void FlatBank::begin_query(FlatScratch& scratch) const {
  ++scratch.query_stamp;
  const std::size_t slot_need =
      slots_.size() * static_cast<std::size_t>(max_basis_size_);
  if (scratch.slot_values.size() < slot_need) {
    scratch.slot_values.resize(slot_need);
  }
  if (scratch.slot_stamp.size() < slots_.size()) {
    scratch.slot_stamp.resize(slots_.size(), 0);
  }
  if (scratch.scaled.size() < static_cast<std::size_t>(max_point_dim_)) {
    scratch.scaled.resize(static_cast<std::size_t>(max_point_dim_));
  }
  if (scratch.heap.capacity() < static_cast<std::size_t>(max_k_)) {
    scratch.heap.reserve(static_cast<std::size_t>(max_k_));
  }
}

void FlatBank::search_kd(const FlatModel& m, int node,
                         std::span<const double> q,
                         std::vector<std::pair<double, int>>& heap) const {
  const FlatKdNode& n = kd_[node];
  const auto k = static_cast<std::size_t>(m.k);
  if (n.axis < 0) {
    for (int i = n.begin; i < n.end; ++i) {
      const int p = order_[m.order_begin + i];
      heap_offer(heap, k, sq_dist(q, point_row(m, p)), p);
    }
    return;
  }
  const double delta = q[n.axis] - n.split;
  const int near = delta < 0.0 ? n.left : n.right;
  const int far = delta < 0.0 ? n.right : n.left;
  search_kd(m, near, q, heap);
  if (heap.size() < k || delta * delta < heap.front().first) {
    search_kd(m, far, q, heap);
  }
}

double FlatBank::rank_cell_value(const RankTable& rt,
                                 const double* x) const {
  // The instance's per-feature threshold ranks pick the precomputed
  // cell, so the whole ensemble costs a few small binary searches plus
  // one load.
  std::int64_t idx = 0;
  for (int f = 0; f < rt.dim; ++f) {
    const double* T = rank_thr_.data() + rt.thr_begin[f];
    const std::int32_t len = rt.thr_len[f];
    const double v = x[f];
    // rank = #{T <= v}; a NaN feature ranks past every threshold, so
    // every comparison takes the right branch, as the tree walk does.
    const std::int32_t r =
        v != v ? len
               : static_cast<std::int32_t>(
                     std::upper_bound(T, T + len, v) - T);
    idx += static_cast<std::int64_t>(r) * rt.stride[f];
  }
  return cell_val_[static_cast<std::size_t>(rt.cells_begin + idx)];
}

double FlatBank::predict_one(std::size_t i, std::span<const double> x,
                             FlatScratch& s) const {
  MPICP_ASSERT(i < models_.size(), "flat model index out of range");
  const FlatModel& m = models_[i];
  switch (m.kind) {
    case FlatKind::kTreeEnsemble: {
      // A rank-cell table answers the whole ensemble with one lookup.
      const RankTable& rt = rank_tables_[i];
      if (rt.built) return rank_cell_value(rt, x.data());
      // Otherwise the blocked branch-free walk: predicated index steps
      // through each tree's packed prefix. Spill-free trees (the
      // common case) finish with one inline leaf-value load; only
      // spilling exits finish with a plain node-pool walk.
      double raw = m.base_score;
      for (int t = m.tree_begin; t < m.tree_end; ++t) {
        const double* thr = blk_thr_.data() + blk_base_[t];
        const std::int32_t* ft = blk_feat_.data() + blk_base_[t];
        const int levels = blk_tree_levels_[t];
        const std::uint32_t exit_off = (1u << levels) - 1;
        std::uint32_t slot = 0;
        for (int d = 0; d < levels; ++d) {
          slot = 2 * slot + 1 +
                 static_cast<std::uint32_t>(!(x[ft[slot]] < thr[slot]));
        }
        if (!blk_spill_[t]) {
          raw += blk_leaf_[blk_exit_base_[t] + (slot - exit_off)];
          continue;
        }
        std::int32_t cur = blk_exit_[blk_exit_base_[t] + (slot - exit_off)];
        while (nodes_[cur].feature >= 0) {
          cur = x[nodes_[cur].feature] < nodes_[cur].threshold
                    ? nodes_[cur].left
                    : nodes_[cur].right;
        }
        raw += nodes_[cur].value;
      }
      if (m.mean_over_trees) {
        raw /= static_cast<double>(m.tree_end - m.tree_begin);
      }
      return m.exp_link ? std::exp(raw) : raw;
    }
    case FlatKind::kKnn: {
      const int dim = m.point_dim;
      std::span<const double> q = x;
      if (m.scaler_begin >= 0) {
        double* sc = s.scaled.data();
        const double* mean = scaler_mean_.data() + m.scaler_begin;
        const double* inv = scaler_inv_std_.data() + m.scaler_begin;
        for (int f = 0; f < dim; ++f) {
          sc[f] = (x[f] - mean[f]) * inv[f];
        }
        q = {sc, static_cast<std::size_t>(dim)};
      }
      s.heap.clear();
      if (m.kd_root >= 0) {
        search_kd(m, m.kd_root, q, s.heap);
      } else {
        const auto k = static_cast<std::size_t>(m.k);
        for (int p = 0; p < m.num_points; ++p) {
          heap_offer(s.heap, k, sq_dist(q, point_row(m, p)), p);
        }
      }
      MPICP_ASSERT(!s.heap.empty(), "knn query on empty model");
      double acc = 0.0;
      for (const auto& [dist, idx] : s.heap) {
        acc += targets_[m.targets_begin + idx];
      }
      return acc / static_cast<double>(s.heap.size());
    }
    case FlatKind::kGam: {
      const int nb = m.basis_size;
      double eta = 0.0;
      eta += 1.0 * coef_[m.coef_begin];
      for (int f = 0; f < m.num_bases; ++f) {
        const int slot = gam_slots_[m.slot_begin + f];
        double* vals =
            s.slot_values.data() +
            static_cast<std::size_t>(slot) * max_basis_size_;
        if (s.slot_stamp[slot] != s.query_stamp) {
          const FlatBasisSlot& sl = slots_[slot];
          bases_[sl.basis].evaluate_into(
              x[sl.feature],
              {vals, static_cast<std::size_t>(bases_[sl.basis].num_basis())});
          s.slot_stamp[slot] = s.query_stamp;
        }
        const double* coef = coef_.data() + m.coef_begin + 1 + f * nb;
        for (int j = 0; j < nb; ++j) eta += vals[j] * coef[j];
      }
      return std::exp(std::clamp(eta, -40.0, 40.0));
    }
    case FlatKind::kLinear: {
      double acc = coef_[m.coef_begin];
      for (int f = 0; f + 1 < m.coef_len; ++f) {
        acc += coef_[m.coef_begin + 1 + f] * x[f];
      }
      return m.exp_link ? std::exp(acc) : acc;
    }
    case FlatKind::kConstant:
      return coef_[m.coef_begin];
  }
  MPICP_RAISE_INTERNAL("unhandled FlatKind");
}

void FlatBank::predict_tree_batch(std::size_t i, const double* xs,
                                  std::size_t x_stride, std::size_t count,
                                  double* out,
                                  std::size_t out_stride) const {
  MPICP_ASSERT(i < models_.size(), "flat model index out of range");
  MPICP_ASSERT(count <= kTreeBatch, "tree batch wider than kTreeBatch");
  const FlatModel& m = models_[i];
  MPICP_ASSERT(m.kind == FlatKind::kTreeEnsemble,
               "predict_tree_batch on a non-tree model");
  const RankTable& rt = rank_tables_[i];
  if (rt.built) {
    // Rank-cell fast path: one table lookup per instance.
    for (std::size_t b = 0; b < count; ++b) {
      out[b * out_stride] = rank_cell_value(rt, xs + b * x_stride);
    }
    return;
  }
  double raw[kTreeBatch];
  for (std::size_t b = 0; b < count; ++b) raw[b] = m.base_score;
  // Tree-outer, instance-inner: each tree's block is walked to
  // completion by every instance of the batch while its thresholds sit
  // in L1, and the per-instance register-resident walks are
  // independent chains the core overlaps in flight. Spill-free trees
  // (the common case) finish with one inline leaf-value load.
  for (int t = m.tree_begin; t < m.tree_end; ++t) {
    const double* thr = blk_thr_.data() + blk_base_[t];
    const std::int32_t* ft = blk_feat_.data() + blk_base_[t];
    const int levels = blk_tree_levels_[t];
    const std::uint32_t exit_off = (1u << levels) - 1;
    if (!blk_spill_[t]) {
      const double* leaf = blk_leaf_.data() + blk_exit_base_[t];
      for (std::size_t b = 0; b < count; ++b) {
        const double* x = xs + b * x_stride;
        std::uint32_t slot = 0;
        for (int d = 0; d < levels; ++d) {
          slot = 2 * slot + 1 +
                 static_cast<std::uint32_t>(!(x[ft[slot]] < thr[slot]));
        }
        raw[b] += leaf[slot - exit_off];
      }
      continue;
    }
    const std::int32_t* ex = blk_exit_.data() + blk_exit_base_[t];
    for (std::size_t b = 0; b < count; ++b) {
      const double* x = xs + b * x_stride;
      std::uint32_t slot = 0;
      for (int d = 0; d < levels; ++d) {
        slot = 2 * slot + 1 +
               static_cast<std::uint32_t>(!(x[ft[slot]] < thr[slot]));
      }
      std::int32_t cur = ex[slot - exit_off];
      while (nodes_[cur].feature >= 0) {
        cur = x[nodes_[cur].feature] < nodes_[cur].threshold
                  ? nodes_[cur].left
                  : nodes_[cur].right;
      }
      raw[b] += nodes_[cur].value;
    }
  }
  const double num_trees = static_cast<double>(m.tree_end - m.tree_begin);
  for (std::size_t b = 0; b < count; ++b) {
    double r = raw[b];
    if (m.mean_over_trees) r /= num_trees;
    out[b * out_stride] = m.exp_link ? std::exp(r) : r;
  }
}

void FlatBank::save(std::ostream& os) const {
  io::write_tag(os, "flatbank");
  io::write_value(os, 2);
  // The blocked form is derived data, re-lowered on load: only its
  // geometry travels with the canonical pools.
  io::write_value(os, block_depth_cap_);
  io::write_value(os, models_.size());
  for (const FlatModel& m : models_) {
    io::write_value(os, static_cast<int>(m.kind));
    io::write_value(os, m.exp_link ? 1 : 0);
    io::write_value(os, m.tree_begin);
    io::write_value(os, m.tree_end);
    io::write_value(os, m.base_score);
    io::write_value(os, m.mean_over_trees ? 1 : 0);
    io::write_value(os, m.k);
    io::write_value(os, m.points_begin);
    io::write_value(os, m.num_points);
    io::write_value(os, m.point_dim);
    io::write_value(os, m.targets_begin);
    io::write_value(os, m.order_begin);
    io::write_value(os, m.kd_root);
    io::write_value(os, m.scaler_begin);
    io::write_value(os, m.slot_begin);
    io::write_value(os, m.num_bases);
    io::write_value(os, m.basis_size);
    io::write_value(os, m.coef_begin);
    io::write_value(os, m.coef_len);
  }
  io::write_value(os, nodes_.size());
  for (const FlatTreeNode& n : nodes_) {
    io::write_value(os, n.feature);
    io::write_value(os, n.threshold);
    io::write_value(os, n.left);
    io::write_value(os, n.right);
    io::write_value(os, n.value);
  }
  io::write_vector(os, tree_roots_);
  io::write_vector(os, points_);
  io::write_vector(os, targets_);
  io::write_vector(os, order_);
  io::write_value(os, kd_.size());
  for (const FlatKdNode& n : kd_) {
    io::write_value(os, n.axis);
    io::write_value(os, n.split);
    io::write_value(os, n.left);
    io::write_value(os, n.right);
    io::write_value(os, n.begin);
    io::write_value(os, n.end);
  }
  io::write_vector(os, scaler_mean_);
  io::write_vector(os, scaler_inv_std_);
  io::write_value(os, bases_.size());
  for (const BSplineBasis& b : bases_) {
    io::write_value(os, b.lo());
    io::write_value(os, b.hi());
    io::write_value(os, b.num_basis());
  }
  io::write_value(os, slots_.size());
  for (const FlatBasisSlot& s : slots_) {
    io::write_value(os, s.basis);
    io::write_value(os, s.feature);
  }
  io::write_vector(os, gam_slots_);
  io::write_vector(os, coef_);
}

void FlatBank::load(std::istream& is) {
  io::expect_tag(is, "flatbank");
  MPICP_CHECK_PARSE(io::read_value<int>(is) == 2,
                    "unsupported flatbank version");
  block_depth_cap_ = io::read_value<int>(is);
  MPICP_REQUIRE(block_depth_cap_ >= 0 && block_depth_cap_ <= 20,
                "implausible flatbank block depth");
  const auto num_models = io::read_value<std::size_t>(is);
  MPICP_REQUIRE(num_models < (1u << 20), "implausible flatbank size");
  models_.assign(num_models, FlatModel{});
  for (FlatModel& m : models_) {
    m.kind = static_cast<FlatKind>(io::read_value<int>(is));
    m.exp_link = io::read_value<int>(is) != 0;
    m.tree_begin = io::read_value<int>(is);
    m.tree_end = io::read_value<int>(is);
    m.base_score = io::read_value<double>(is);
    m.mean_over_trees = io::read_value<int>(is) != 0;
    m.k = io::read_value<int>(is);
    m.points_begin = io::read_value<int>(is);
    m.num_points = io::read_value<int>(is);
    m.point_dim = io::read_value<int>(is);
    m.targets_begin = io::read_value<int>(is);
    m.order_begin = io::read_value<int>(is);
    m.kd_root = io::read_value<int>(is);
    m.scaler_begin = io::read_value<int>(is);
    m.slot_begin = io::read_value<int>(is);
    m.num_bases = io::read_value<int>(is);
    m.basis_size = io::read_value<int>(is);
    m.coef_begin = io::read_value<int>(is);
    m.coef_len = io::read_value<int>(is);
  }
  const auto num_nodes = io::read_value<std::size_t>(is);
  MPICP_REQUIRE(num_nodes < (1u << 28), "implausible flatbank node pool");
  nodes_.assign(num_nodes, FlatTreeNode{});
  for (FlatTreeNode& n : nodes_) {
    n.feature = io::read_value<int>(is);
    n.threshold = io::read_value<double>(is);
    n.left = io::read_value<int>(is);
    n.right = io::read_value<int>(is);
    n.value = io::read_value<double>(is);
  }
  tree_roots_ = io::read_vector<int>(is);
  points_ = io::read_vector<double>(is);
  targets_ = io::read_vector<double>(is);
  order_ = io::read_vector<int>(is);
  const auto num_kd = io::read_value<std::size_t>(is);
  MPICP_REQUIRE(num_kd < (1u << 26), "implausible flatbank kd pool");
  kd_.assign(num_kd, FlatKdNode{});
  for (FlatKdNode& n : kd_) {
    n.axis = io::read_value<int>(is);
    n.split = io::read_value<double>(is);
    n.left = io::read_value<int>(is);
    n.right = io::read_value<int>(is);
    n.begin = io::read_value<int>(is);
    n.end = io::read_value<int>(is);
  }
  scaler_mean_ = io::read_vector<double>(is);
  scaler_inv_std_ = io::read_vector<double>(is);
  const auto num_bases = io::read_value<std::size_t>(is);
  MPICP_REQUIRE(num_bases < (1u << 16), "implausible flatbank basis pool");
  bases_.clear();
  bases_.reserve(num_bases);
  for (std::size_t b = 0; b < num_bases; ++b) {
    const auto lo = io::read_value<double>(is);
    const auto hi = io::read_value<double>(is);
    const auto nb = io::read_value<int>(is);
    bases_.emplace_back(lo, hi, nb);
  }
  const auto num_slots = io::read_value<std::size_t>(is);
  MPICP_REQUIRE(num_slots < (1u << 20), "implausible flatbank slot pool");
  slots_.assign(num_slots, FlatBasisSlot{});
  for (FlatBasisSlot& s : slots_) {
    s.basis = io::read_value<int>(is);
    s.feature = io::read_value<int>(is);
  }
  gam_slots_ = io::read_vector<int>(is);
  coef_ = io::read_vector<double>(is);
  max_basis_size_ = 0;
  max_point_dim_ = 0;
  max_k_ = 0;
  for (const FlatModel& m : models_) {
    max_basis_size_ = std::max(max_basis_size_, m.basis_size);
    max_point_dim_ = std::max(max_point_dim_, m.point_dim);
    max_k_ = std::max(max_k_, m.k);
  }
  // The derived build walks every tree from the file, so its shape is
  // checked first. lower_trees() appends tree after tree in preorder:
  // the roots partition the node pool into non-empty ranges starting
  // at 0, and every child lies after its parent inside its own tree.
  const auto pool = static_cast<std::int64_t>(nodes_.size());
  const auto num_trees = static_cast<std::int64_t>(tree_roots_.size());
  MPICP_CHECK_PARSE(num_trees == 0 ? pool == 0 : tree_roots_[0] == 0,
                    "flatbank: tree roots do not cover the node pool");
  for (std::int64_t t = 0; t < num_trees; ++t) {
    const std::int64_t root = tree_roots_[t];
    const std::int64_t end = t + 1 < num_trees ? tree_roots_[t + 1] : pool;
    MPICP_CHECK_PARSE(root < end && end <= pool,
                      "flatbank: tree root out of range");
    for (std::int64_t n = root; n < end; ++n) {
      const FlatTreeNode& node = nodes_[n];
      if (node.feature < 0) continue;
      MPICP_CHECK_PARSE(node.left > n && node.left < end &&
                            node.right > n && node.right < end,
                        "flatbank: tree child index out of preorder range");
    }
  }
  for (const FlatModel& m : models_) {
    if (m.kind != FlatKind::kTreeEnsemble) continue;
    MPICP_CHECK_PARSE(0 <= m.tree_begin && m.tree_begin < m.tree_end &&
                          m.tree_end <= num_trees,
                      "flatbank: model tree range outside the tree roots");
  }
  build_derived(0);
}

}  // namespace mpicp::ml
