#include "ml/flatten.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <numeric>
#include <utility>

#include "ml/forest.hpp"
#include "ml/gam.hpp"
#include "ml/gbt.hpp"
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

/// Offers (dist, row) to `best`, the ascending (distance, row) list of
/// the `count` nearest rows so far, capped at k. Returns false when the
/// candidate does not enter — nor would a later row at the same
/// distance. The pair order is the reference KNN's tie rule.
bool knn_offer(std::pair<double, int>* best, int& count, int k, double dist,
               int row) {
  const std::pair<double, int> cand(dist, row);
  int pos = count;
  if (count < k) {
    ++count;
  } else if (cand < best[k - 1]) {
    pos = k - 1;
  } else {
    return false;
  }
  for (; pos > 0 && cand < best[pos - 1]; --pos) best[pos] = best[pos - 1];
  best[pos] = cand;
  return true;
}

/// Copies the non-zero entries of `dense` into (idx, val), ascending;
/// returns their count, or -1 when there are more than `cap`. A NaN is
/// non-zero. `val` may be `dense` itself: entry j lands at or before j.
int nonzero_terms(std::span<const double> dense, std::int32_t* idx,
                  double* val, int cap) {
  int count = 0;
  for (std::size_t j = 0; j < dense.size(); ++j) {
    // mpicp-lint: allow(no-float-eq) — only an exact zero term may drop
    if (dense[j] == 0.0) continue;
    if (count == cap) return -1;
    idx[count] = static_cast<std::int32_t>(j);
    val[count] = dense[j];
    ++count;
  }
  return count;
}

/// Initial window width of the KNN grid search, per factored axis. On
/// the d6 bank under off-grid queries, W = 2 (4 candidate cells)
/// accepts ~81 % of model queries at once and ~97 % after one widening;
/// wider first windows cost more in cells than they save in widenings.
constexpr int kKnnWindow = 2;
/// Slack of the window acceptance test. The k-th distance must lie
/// below the outside bound by more than the rounding of a 4-term sum
/// (relative) and of subnormal terms (absolute).
constexpr double kKnnRelSlack = 1e-12;
constexpr double kKnnAbsSlack = 1e-300;

/// Fills bwin[0, keep) with the `keep` b-tuples nearest the query over
/// axes 1..BD, as (partial distance, tuple) ascending; every tuple left
/// out is at least bwin[keep - 1].first away. The tuples come in
/// groups of one axis-1 value (`groups`: num_groups + 1 starts), which
/// are visited nearest first; a group whose axis-1 term alone reaches
/// the current keep-th distance is skipped with every group beyond it,
/// since a left-to-right sum of non-negative terms is at least its
/// first term.
template <int BD>
void nearest_tuples(std::span<const double> q, const double* B, int b_len,
                    const std::int32_t* groups, int num_groups, int keep,
                    std::pair<double, int>* bwin) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const double q1 = q[1];
  int lo = 0;
  int hi = num_groups;
  while (lo < hi) {  // first group with axis-1 value >= q1
    const int mid = (lo + hi) / 2;
    if (B[groups[mid]] < q1) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  hi = lo;  // groups [lo, hi) are done
  int kept = 0;
  while (lo > 0 || hi < num_groups) {
    const double tl =
        lo > 0 ? (q1 - B[groups[lo - 1]]) * (q1 - B[groups[lo - 1]]) : kInf;
    const double tr =
        hi < num_groups ? (q1 - B[groups[hi]]) * (q1 - B[groups[hi]]) : kInf;
    const bool left = lo > 0 && (hi == num_groups || tl <= tr);
    if (kept == keep && !((left ? tl : tr) < bwin[keep - 1].first)) break;
    const int gi = left ? --lo : hi++;
    for (int b = groups[gi]; b < groups[gi + 1]; ++b) {
      // Partial distance, summed left to right as sq_dist sums the
      // same terms.
      double v = 0.0;
      for (int f = 0; f < BD; ++f) {
        const double d = q[f + 1] - B[f * b_len + b];
        v += d * d;
      }
      // The insertion of knn_offer on distances alone: the pair
      // comparison costs ~20 % of a d6 argmin in this loop.
      int at = kept;
      if (kept < keep) {
        ++kept;
      } else if (v < bwin[keep - 1].first) {
        at = keep - 1;
      } else {
        continue;
      }
      for (; at > 0 && v < bwin[at - 1].first; --at) bwin[at] = bwin[at - 1];
      bwin[at] = {v, b};
    }
  }
}

}  // namespace

FlatBank::FlatBank(std::span<const Regressor* const> models)
    : rank_tables_(models.size()), knn_grids_(models.size()) {
  models_.reserve(models.size());
  for (const Regressor* model : models) lower(*model);
  build_argmin_table();
  build_gam_groups();
}

void FlatBank::lower(const Regressor& model) {
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
    const Matrix& pts = knn->points();
    MPICP_REQUIRE(knn->params().k >= 1 && knn->params().k <= kMaxKnnK,
                  "knn k outside [1, kMaxKnnK]");
    MPICP_REQUIRE(pts.cols() >= 1 &&
                      pts.cols() <= static_cast<std::size_t>(kMaxKnnDim),
                  "knn feature count outside [1, kMaxKnnDim]");
    for (std::size_t r = 0; r < pts.rows(); ++r) {
      MPICP_REQUIRE(std::ranges::all_of(
                        pts.row(r), [](double v) { return std::isfinite(v); }),
                    "knn training points must be finite");
    }
    lower_knn(*knn, m);
  } else if (const auto* gam = dynamic_cast<const GamRegressor*>(&model)) {
    MPICP_REQUIRE(!gam->beta().empty(), "compiling an unfitted model");
    // The fused pass drops zero basis terms, which is exact only against
    // finite coefficients (0 x inf is NaN).
    MPICP_REQUIRE(std::ranges::all_of(
                      gam->beta(), [](double c) { return std::isfinite(c); }),
                  "gam coefficients must be finite");
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
  // the new model's rank-cell table or KNN grid is derived here, once.
  if (m.kind == FlatKind::kTreeEnsemble) build_rank_table(models_.size() - 1);
  if (m.kind == FlatKind::kKnn) build_knn_grid(models_.size() - 1);
}

void FlatBank::build_rank_table(std::size_t mi) {
  const FlatModel& m = models_[mi];
  // The model's nodes are one contiguous pool range (lower_trees
  // appends tree after tree), bounded by the next tree root.
  const int node_begin = tree_roots_[m.tree_begin];
  const int node_end =
      static_cast<std::size_t>(m.tree_end) < tree_roots_.size()
          ? tree_roots_[m.tree_end]
          : static_cast<int>(nodes_.size());
  // Distinct thresholds per feature, sorted; bail out on any shape the
  // table cannot represent exactly (the plain walk serves it).
  std::vector<std::vector<double>> per_feat(kMaxRankFeatures);
  int dim = 0;
  for (int n = node_begin; n < node_end; ++n) {
    const FlatTreeNode& node = nodes_[n];
    if (node.feature < 0) continue;
    if (node.feature >= kMaxRankFeatures || std::isnan(node.threshold)) {
      return;
    }
    dim = std::max(dim, node.feature + 1);
    // mpicp-lint: allow(no-alloc-in-loop) cold lowering path; the
    // per-feature split is unknowable before this very scan.
    per_feat[node.feature].push_back(node.threshold);
  }
  std::size_t cells = 1;
  for (int f = 0; f < dim; ++f) {
    auto& v = per_feat[f];
    std::sort(v.begin(), v.end());
    v.erase(std::unique(v.begin(), v.end()), v.end());
    cells *= v.size() + 1;
    if (cells > kMaxRankCells) return;
  }
  RankTable& rt = rank_tables_[mi];
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
  std::vector<std::int32_t> node_rank(
      static_cast<std::size_t>(node_end - node_begin), -1);
  for (int n = node_begin; n < node_end; ++n) {
    const FlatTreeNode& node = nodes_[n];
    if (node.feature < 0) continue;
    const auto& v = per_feat[node.feature];
    node_rank[n - node_begin] = static_cast<std::int32_t>(
        std::lower_bound(v.begin(), v.end(), node.threshold) - v.begin());
  }
  // Fill the cells tree by tree. A cell's rank vector fixes the
  // outcome of every comparison (`x < T[j]` iff `rank(x) <= j`), so
  // the cells that reach a leaf form a box of per-feature rank
  // intervals, and each tree's leaves partition the grid. Starting
  // every cell at base_score and adding each leaf's value to its box,
  // in canonical tree order, sums every cell in walk order; the same
  // mean and link transform as the interpreted predict_one then yield
  // the exact double every instance in the cell would get.
  rt.cells_begin = static_cast<std::int64_t>(cell_val_.size());
  support::reserve_more(cell_val_, cells);
  cell_val_.resize(cell_val_.size() + cells, m.base_score);
  double* cell = cell_val_.data() + rt.cells_begin;
  // Per-feature inclusive rank intervals [lo, hi]: the cells from which
  // one tree node is reached.
  struct RankBox {
    std::array<std::int32_t, kMaxRankFeatures> lo{};
    std::array<std::int32_t, kMaxRankFeatures> hi{};
  };
  // Adds `value` to every cell of `box`: an odometer over features
  // 1..dim-1, with feature 0 (stride 1) one contiguous run per step.
  const auto add_to_box = [&rt, cell](const RankBox& box, double value) {
    if (rt.dim == 0) {
      cell[0] += value;
      return;
    }
    std::array<std::int32_t, kMaxRankFeatures> r = box.lo;
    for (;;) {
      std::int64_t base = 0;
      for (int f = 1; f < rt.dim; ++f) {
        base += static_cast<std::int64_t>(r[f]) * rt.stride[f];
      }
      for (std::int32_t r0 = box.lo[0]; r0 <= box.hi[0]; ++r0) {
        cell[base + r0] += value;
      }
      int f = 1;
      for (; f < rt.dim; ++f) {
        if (++r[f] <= box.hi[f]) break;
        r[f] = box.lo[f];
      }
      if (f == rt.dim) return;
    }
  };
  std::vector<std::pair<int, RankBox>> pending;  // nodes still to visit
  pending.reserve(64);
  RankBox whole;
  for (int f = 0; f < dim; ++f) whole.hi[f] = rt.thr_len[f];
  for (int t = m.tree_begin; t < m.tree_end; ++t) {
    // Depth first: descend left with the box narrowed in place and
    // leave the right branch's box on the stack. A branch no cell
    // reaches (an empty interval) is dropped.
    int cur = tree_roots_[t];
    RankBox box = whole;
    for (;;) {
      const FlatTreeNode& node = nodes_[cur];
      if (node.feature >= 0) {
        const int f = node.feature;
        const std::int32_t j = node_rank[cur - node_begin];
        if (j < box.hi[f]) {
          pending.push_back({node.right, box});
          pending.back().second.lo[f] = std::max(box.lo[f], j + 1);
        }
        if (box.lo[f] <= j) {
          box.hi[f] = std::min(box.hi[f], j);
          cur = node.left;
          continue;
        }
      } else {
        add_to_box(box, node.value);
      }
      if (pending.empty()) break;
      cur = pending.back().first;
      box = pending.back().second;
      pending.pop_back();
    }
  }
  const double num_trees = static_cast<double>(m.tree_end - m.tree_begin);
  for (std::size_t c = 0; c < cells; ++c) {
    double raw = cell[c];
    if (m.mean_over_trees) raw /= num_trees;
    cell[c] = m.exp_link ? std::exp(raw) : raw;
  }
  rt.built = true;
}

void FlatBank::build_knn_grid(std::size_t mi) {
  const FlatModel& m = models_[mi];
  const int n = m.num_points;
  const int bdim = m.point_dim - 1;
  const auto tail = [&](int p) { return point_row(m, p).subspan(1); };
  // Axis 0: the sorted distinct values.
  std::vector<double> axis0(static_cast<std::size_t>(n));
  for (int p = 0; p < n; ++p) axis0[p] = point_row(m, p)[0];
  std::sort(axis0.begin(), axis0.end());
  axis0.erase(std::unique(axis0.begin(), axis0.end()), axis0.end());
  // The other axes: distinct tuples, numbered in lexicographic order.
  std::vector<std::int32_t> by_tuple(static_cast<std::size_t>(n));
  std::iota(by_tuple.begin(), by_tuple.end(), 0);
  std::sort(by_tuple.begin(), by_tuple.end(), [&](int a, int b) {
    const auto ta = tail(a);
    const auto tb = tail(b);
    return std::lexicographical_compare(ta.begin(), ta.end(), tb.begin(),
                                        tb.end());
  });
  std::vector<std::int32_t> tuple_of(static_cast<std::size_t>(n));
  std::vector<std::int32_t> tuple_rep;
  for (int j = 0; j < n; ++j) {
    const int p = by_tuple[j];
    if (tuple_rep.empty() ||
        !std::ranges::equal(tail(tuple_rep.back()), tail(p))) {
      // mpicp-lint: allow(no-alloc-in-loop) cold lowering path; the
      // tuple count is unknowable before this very scan.
      tuple_rep.push_back(p);
    }
    tuple_of[p] = static_cast<std::int32_t>(tuple_rep.size()) - 1;
  }
  const std::size_t a_len = axis0.size();
  const std::size_t b_len = tuple_rep.size();
  const std::size_t cells = a_len * b_len;
  // A grid over the cap (continuous features) is served by a scan.
  if (cells > kMaxKnnGridCells) return;
  KnnGrid& g = knn_grids_[mi];
  g.a_len = static_cast<int>(a_len);
  g.b_len = static_cast<int>(b_len);
  g.coord_begin = static_cast<std::int32_t>(grid_coord_.size());
  support::reserve_more(grid_coord_, a_len + b_len * bdim);
  grid_coord_.insert(grid_coord_.end(), axis0.begin(), axis0.end());
  for (int f = 0; f < bdim; ++f) {
    for (const std::int32_t p : tuple_rep) {
      grid_coord_.push_back(tail(p)[f]);
    }
  }
  // Cell offsets by counting sort; filling in ascending row order
  // keeps every cell's rows in row order.
  std::vector<std::int32_t> cursor(cells + 1, 0);
  const auto cell_of = [&](int p) {
    const std::size_t a = static_cast<std::size_t>(
        std::lower_bound(axis0.begin(), axis0.end(), point_row(m, p)[0]) -
        axis0.begin());
    return a * b_len + static_cast<std::size_t>(tuple_of[p]);
  };
  for (int p = 0; p < n; ++p) ++cursor[cell_of(p) + 1];
  std::partial_sum(cursor.begin(), cursor.end(), cursor.begin());
  g.cell_begin = static_cast<std::int32_t>(grid_cell_.size());
  grid_cell_.insert(grid_cell_.end(), cursor.begin(), cursor.end());
  g.rows_begin = static_cast<std::int32_t>(grid_rows_.size());
  grid_rows_.resize(grid_rows_.size() + static_cast<std::size_t>(n));
  std::int32_t* rows = grid_rows_.data() + g.rows_begin;
  for (int p = 0; p < n; ++p) rows[cursor[cell_of(p)]++] = p;
  // Groups of b-tuples sharing their axis-1 value (contiguous, since
  // the tuples are in lexicographic order).
  g.group_begin = static_cast<std::int32_t>(grid_group_.size());
  support::reserve_more(grid_group_, b_len + 1);
  for (std::size_t j = 0; j < b_len && bdim > 0; ++j) {
    if (j == 0 || tail(tuple_rep[j])[0] != tail(tuple_rep[j - 1])[0]) {
      grid_group_.push_back(static_cast<std::int32_t>(j));
    }
  }
  g.num_groups = static_cast<int>(grid_group_.size()) - g.group_begin;
  grid_group_.push_back(static_cast<std::int32_t>(b_len));
  max_grid_b_ = std::max(max_grid_b_, g.b_len);
  g.built = true;
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
  build_int_rows(slots_.size() - 1);
  return static_cast<int>(slots_.size()) - 1;
}

void FlatBank::build_int_rows(std::size_t slot) {
  slot_rows_.emplace_back();
  const BSplineBasis& basis = bases_[slots_[slot].basis];
  const double lo = basis.lo();
  const double hi = basis.hi();
  // Within +-2^31 every integer and every difference below is exact.
  constexpr double kLimit = 2147483648.0;
  if (!(std::abs(lo) < kLimit && std::abs(hi) < kLimit)) return;
  const double first = std::ceil(lo);
  const double ints = std::max(0.0, std::floor(hi) - first + 1.0);
  if (ints > kMaxIntRows) return;
  const auto count = static_cast<std::int32_t>(ints);
  std::vector<IntRow> rows(static_cast<std::size_t>(count) + 2);
  std::vector<double> dense(static_cast<std::size_t>(basis.num_basis()));
  for (std::int32_t r = 0; r < count + 2; ++r) {
    const double v = r < count ? first + r : (r == count ? lo : hi);
    basis.evaluate_into(v, dense);
    IntRow& row = rows[static_cast<std::size_t>(r)];
    row.count = nonzero_terms(dense, row.idx.data(), row.val.data(), kRowTerms);
    if (row.count < 0) return;
  }
  IntRows& table = slot_rows_.back();
  table.first = first;
  table.count = count;
  table.begin = static_cast<std::int32_t>(int_rows_.size());
  int_rows_.insert(int_rows_.end(), rows.begin(), rows.end());
  table.built = true;
}

void FlatBank::build_argmin_table() {
  const std::size_t n = models_.size();
  if (n == 0 || n >= kNoModel) return;
  int dim = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (models_[i].kind != FlatKind::kTreeEnsemble || !rank_tables_[i].built) {
      return;
    }
    dim = std::max(dim, rank_tables_[i].dim);
  }
  // The union of the models' strips, per feature.
  const auto strip = [this](const RankTable& rt, int f) {
    const double* t = rank_thr_.data() + rt.thr_begin[f];
    return std::span<const double>(t, static_cast<std::size_t>(rt.thr_len[f]));
  };
  std::vector<std::vector<double>> uni(static_cast<std::size_t>(dim));
  std::size_t cells = 1;
  for (int f = 0; f < dim; ++f) {
    auto& u = uni[static_cast<std::size_t>(f)];
    for (std::size_t i = 0; i < n; ++i) {
      if (f >= rank_tables_[i].dim) continue;
      const auto t = strip(rank_tables_[i], f);
      u.insert(u.end(), t.begin(), t.end());
    }
    std::sort(u.begin(), u.end());
    u.erase(std::unique(u.begin(), u.end()), u.end());
    cells *= u.size() + 1;
    if (cells * sizeof(std::uint16_t) > kMaxArgminBytes) return;
  }
  RankTable& at = argmin_table_;
  at.dim = dim;
  std::size_t stride = 1;
  for (int f = 0; f < dim; ++f) {
    const auto& u = uni[static_cast<std::size_t>(f)];
    at.thr_begin[f] = static_cast<std::int32_t>(argmin_thr_.size());
    at.thr_len[f] = static_cast<std::int32_t>(u.size());
    at.stride[f] = static_cast<std::int32_t>(stride);
    stride *= u.size() + 1;
    argmin_thr_.insert(argmin_thr_.end(), u.begin(), u.end());
  }
  // offset[i][f][r]: model i's cell offset along feature f for union
  // rank r. Model i's strip is a subset of the union's, so every value
  // of union cell r (at least U[r - 1]) has the model rank #{T <= U[r-1]}
  // -- and a NaN, ranked past every threshold of both, has it too.
  std::vector<std::vector<std::vector<std::int64_t>>> offset(n);
  for (std::size_t i = 0; i < n; ++i) {
    const RankTable& rt = rank_tables_[i];
    offset[i].resize(static_cast<std::size_t>(dim));
    for (int f = 0; f < dim; ++f) {
      const auto& u = uni[static_cast<std::size_t>(f)];
      auto& off = offset[i][static_cast<std::size_t>(f)];
      off.assign(u.size() + 1, 0);
      if (f >= rt.dim) continue;
      const auto t = strip(rt, f);
      for (std::size_t r = 1; r <= u.size(); ++r) {
        const auto rank = std::upper_bound(t.begin(), t.end(), u[r - 1]) -
                          t.begin();
        off[r] = static_cast<std::int64_t>(rank) * rt.stride[f];
      }
    }
  }
  // Every cell screens and compares the models in index order, as the
  // per-model argmin does: the least usable value, the lowest index on
  // ties.
  argmin_cell_.assign(cells, kNoModel);
  std::vector<std::uint16_t> excluded(cells, 0);
  bool any_excluded = false;
  std::array<std::int32_t, kMaxRankFeatures> r{};
  for (std::size_t c = 0; c < cells; ++c) {
    std::uint16_t best = kNoModel;
    double best_value = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      std::int64_t cell = rank_tables_[i].cells_begin;
      for (int f = 0; f < dim; ++f) cell += offset[i][f][r[f]];
      const double v = cell_val_[static_cast<std::size_t>(cell)];
      if (!(std::isfinite(v) && v >= 0.0)) {
        ++excluded[c];
        continue;
      }
      if (best == kNoModel || v < best_value) {
        best = static_cast<std::uint16_t>(i);
        best_value = v;
      }
    }
    argmin_cell_[c] = best;
    any_excluded = any_excluded || excluded[c] > 0;
    for (int f = 0; f < dim; ++f) {  // next cell, feature 0 fastest
      if (++r[f] <= at.thr_len[f]) break;
      r[f] = 0;
    }
  }
  if (any_excluded) argmin_excluded_ = std::move(excluded);
  at.built = true;
}

void FlatBank::build_gam_groups() {
  const auto slots_of = [this](const FlatModel& m) {
    return std::span<const int>(gam_slots_).subspan(
        static_cast<std::size_t>(m.slot_begin),
        static_cast<std::size_t>(m.num_bases));
  };
  // Every group's members, in model order: a GAM joins the first group
  // with its shape and slot list, or opens a new one.
  std::vector<std::vector<std::size_t>> members;
  members.reserve(models_.size());
  for (std::size_t i = 0; i < models_.size(); ++i) {
    const FlatModel& m = models_[i];
    if (m.kind != FlatKind::kGam) continue;
    const auto group = std::ranges::find_if(members, [&](const auto& g) {
      const FlatModel& first = models_[g.front()];
      return first.basis_size == m.basis_size &&
             std::ranges::equal(slots_of(first), slots_of(m));
    });
    if (group == members.end()) {
      members.push_back({i});
    } else {
      group->push_back(i);
    }
  }
  gam_groups_.reserve(members.size());
  gam_coef_t_.reserve(coef_.size());  // every GAM's block, and more
  for (const std::vector<std::size_t>& group : members) {
    const FlatModel& first = models_[group.front()];
    gam_groups_.push_back(
        {.num_models = static_cast<int>(group.size()),
         .num_bases = first.num_bases,
         .basis_size = first.basis_size,
         .slot_begin = first.slot_begin,
         .coef_begin = static_cast<std::int64_t>(gam_coef_t_.size()),
         .eta_begin = num_gams_});
    for (int t = 0; t < 1 + first.num_bases * first.basis_size; ++t) {
      for (const std::size_t i : group) {
        gam_coef_t_.push_back(coef_[models_[i].coef_begin + t]);
      }
    }
    for (const std::size_t i : group) models_[i].eta_at = num_gams_++;
  }
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

void FlatBank::begin_query(std::span<const double> x, FlatScratch& s) const {
  const auto grow = [](auto& buffer, std::size_t need) {
    if (buffer.size() < need) buffer.resize(need);
  };
  const std::size_t slot_need =
      slots_.size() * static_cast<std::size_t>(max_basis_size_);
  grow(s.knn_bwin, static_cast<std::size_t>(max_grid_b_));
  grow(s.slot_terms, slots_.size());
  grow(s.term_idx, slot_need);
  grow(s.term_val, slot_need);
  grow(s.gam_eta, static_cast<std::size_t>(num_gams_));
  // Every slot's non-zero basis terms, ascending: an integer row when
  // the feature is an integer of the slot's table or lies beyond a
  // clamp end, else evaluate_into and keep the non-zero entries. A NaN
  // feature evaluates, and every one of its terms is NaN.
  for (std::size_t slot = 0; slot < slots_.size(); ++slot) {
    const FlatBasisSlot& sl = slots_[slot];
    const BSplineBasis& basis = bases_[sl.basis];
    const double v = x[sl.feature];
    const IntRows& table = slot_rows_[slot];
    const IntRow* row = nullptr;
    if (table.built) {
      if (v < basis.lo()) {
        row = &int_rows_[table.begin + table.count];
      } else if (v > basis.hi()) {
        row = &int_rows_[table.begin + table.count + 1];
      } else if (const double k = v - table.first; k == std::floor(k)) {
        row = &int_rows_[table.begin + static_cast<std::int32_t>(k)];
      }
    }
    FlatScratch::SlotTerms& terms = s.slot_terms[slot];
    if (row != nullptr) {
      terms = {row->idx.data(), row->val.data(), row->count};
      continue;
    }
    // Evaluated into the slot's own strip, then compacted in place.
    const std::size_t at = slot * static_cast<std::size_t>(max_basis_size_);
    std::int32_t* idx = s.term_idx.data() + at;
    double* val = s.term_val.data() + at;
    const int nb = basis.num_basis();
    basis.evaluate_into(v, {val, static_cast<std::size_t>(nb)});
    terms = {idx, val,
             nonzero_terms({val, static_cast<std::size_t>(nb)}, idx, val, nb)};
  }
}

double FlatBank::fused_gam_eta(FlatScratch& s) const {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  if (num_gams_ == 0) return kInf;
  // Each group's scores, all members at once. Every member adds its
  // terms in its own order (intercept, then feature by feature,
  // ascending basis index), as predict_one does, so its score keeps the
  // bits of the interpreted dot product: a dropped term is 0 x finite,
  // which leaves a sum unchanged up to the sign of a zero, and
  // exp(+0) == exp(-0).
  double* eta_all = s.gam_eta.data();
  for (const GamGroup& g : gam_groups_) {
    const int mm = g.num_models;
    const double* c = gam_coef_t_.data() + g.coef_begin;
    double* eta = eta_all + g.eta_begin;
    for (int k = 0; k < mm; ++k) {
      eta[k] = 0.0;
      eta[k] += 1.0 * c[k];
    }
    for (int f = 0; f < g.num_bases; ++f) {
      const FlatScratch::SlotTerms& terms =
          s.slot_terms[static_cast<std::size_t>(gam_slots_[g.slot_begin + f])];
      const double* block = c + (1 + f * g.basis_size) * mm;
      for (int t = 0; t < terms.count; ++t) {
        const double v = terms.val[t];
        const double* row = block + terms.idx[t] * mm;
        for (int k = 0; k < mm; ++k) eta[k] += v * row[k];
      }
    }
  }
  double least = kInf;
  for (int k = 0; k < num_gams_; ++k) {
    eta_all[k] = std::clamp(eta_all[k], -40.0, 40.0);
    least = std::min(least, eta_all[k]);  // a NaN never becomes the least
  }
  return least + kExpMargin;
}

int FlatBank::argmin(std::span<const double> x, FlatScratch& s,
                     std::size_t& excluded) const {
  if (argmin_table_.built) {
    const auto c = static_cast<std::size_t>(
        rank_cell(argmin_table_, argmin_thr_.data(), x.data()));
    excluded = argmin_excluded_.empty() ? 0 : argmin_excluded_[c];
    const std::uint16_t best = argmin_cell_[c];
    return best == kNoModel ? -1 : best;
  }
  begin_query(x, s);
  const double cut = fused_gam_eta(s);
  int best = -1;
  double best_value = 0.0;
  excluded = 0;
  for (std::size_t i = 0; i < models_.size(); ++i) {
    double t = 0.0;
    if (const FlatModel& m = models_[i]; m.kind == FlatKind::kGam) {
      const double eta = s.gam_eta[static_cast<std::size_t>(m.eta_at)];
      // Usable (finite, positive), and above the least GAM prediction.
      if (eta > cut) continue;
      t = std::exp(eta);
    } else {
      t = predict_one(i, x, s);
    }
    if (!(std::isfinite(t) && t >= 0.0)) {
      ++excluded;
      continue;
    }
    if (best < 0 || t < best_value) {
      best = static_cast<int>(i);
      best_value = t;
    }
  }
  return best;
}

double FlatBank::predict_knn(std::size_t i, std::span<const double> x,
                             FlatScratch& s) const {
  const FlatModel& m = models_[i];
  const int dim = m.point_dim;
  std::span<const double> q = x.first(static_cast<std::size_t>(dim));
  if (m.scaler_begin >= 0) {
    double* sc = s.scaled.data();
    const double* mean = scaler_mean_.data() + m.scaler_begin;
    const double* inv = scaler_inv_std_.data() + m.scaler_begin;
    for (int f = 0; f < dim; ++f) {
      sc[f] = (x[f] - mean[f]) * inv[f];
    }
    q = {sc, static_cast<std::size_t>(dim)};
  }
  const int k = std::min(m.k, m.num_points);
  std::pair<double, int>* best = s.knn_best.data();
  int count = 0;
  const KnnGrid& g = knn_grids_[i];
  if (!g.built) {
    for (int p = 0; p < m.num_points; ++p) {
      knn_offer(best, count, k, sq_dist(q, point_row(m, p)), p);
    }
  } else {
    constexpr double kInf = std::numeric_limits<double>::infinity();
    const int bdim = dim - 1;
    const double* A = grid_coord_.data() + g.coord_begin;
    const double* B = A + g.a_len;  // strip f: B[f * b_len + tuple]
    const std::int32_t* cell = grid_cell_.data() + g.cell_begin;
    const std::int32_t* rows = grid_rows_.data() + g.rows_begin;
    const double q0 = q[0];
    const int pos = static_cast<int>(std::lower_bound(A, A + g.a_len, q0) - A);
    std::pair<double, int>* bwin = s.knn_bwin.data();
    double p[kMaxKnnDim];
    int wa = kKnnWindow;
    int wb = kKnnWindow;
    int nb = 0;
    for (;;) {
      // The wa axis-0 values nearest q0, grown outward from its slot.
      int lo = pos;
      int hi = pos;
      while (hi - lo < std::min(wa, g.a_len)) {
        if (lo == 0) {
          ++hi;
        } else if (hi == g.a_len || q0 - A[lo - 1] <= A[hi] - q0) {
          --lo;
        } else {
          ++hi;
        }
      }
      // The nb nearest b-tuples, plus the next one for the bound;
      // reselected only when the B window widened.
      if (nb != std::min(wb, g.b_len)) {
        nb = std::min(wb, g.b_len);
        const int keep = std::min(nb + 1, g.b_len);
        const std::int32_t* groups = grid_group_.data() + g.group_begin;
        switch (bdim) {
          case 0:
            bwin[0] = {0.0, 0};
            break;
          case 1:
            nearest_tuples<1>(q, B, g.b_len, groups, g.num_groups, keep, bwin);
            break;
          case 2:
            nearest_tuples<2>(q, B, g.b_len, groups, g.num_groups, keep, bwin);
            break;
          default:
            nearest_tuples<3>(q, B, g.b_len, groups, g.num_groups, keep, bwin);
            break;
        }
      }
      // Every candidate cell: one sq_dist over its shared coordinates,
      // then its rows in row order until one fails to enter.
      count = 0;
      double a_min = kInf;
      for (int a = lo; a < hi; ++a) {
        p[0] = A[a];
        a_min = std::min(a_min, (q0 - A[a]) * (q0 - A[a]));
        const std::int32_t* crow = cell + static_cast<std::size_t>(a) * g.b_len;
        for (int w = 0; w < nb; ++w) {
          const int b = bwin[w].second;
          const std::int32_t r1 = crow[b + 1];
          std::int32_t r = crow[b];
          if (r == r1) continue;
          for (int f = 0; f < bdim; ++f) p[f + 1] = B[f * g.b_len + b];
          const double d = sq_dist(q, {p, static_cast<std::size_t>(dim)});
          while (r < r1 && knn_offer(best, count, k, d, rows[r])) ++r;
        }
      }
      const bool a_all = lo == 0 && hi == g.a_len;
      const bool b_all = nb == g.b_len;
      if (a_all && b_all) break;
      // Lower bounds on the distance of any point outside the windows:
      // dropping non-negative terms from a left-to-right sum cannot
      // raise it, so a point whose axis-0 value lies outside is at
      // least a_out + (nearest b-tuple) away, and one whose b-tuple
      // lies outside at least (nearest axis-0 value) + b_out.
      const double a_out = std::min(
          lo > 0 ? (q0 - A[lo - 1]) * (q0 - A[lo - 1]) : kInf,
          hi < g.a_len ? (q0 - A[hi]) * (q0 - A[hi]) : kInf);
      const double b_out = b_all ? kInf : bwin[nb].first;
      const double via_a = a_out + bwin[0].first;
      const double via_b = std::min(a_min, a_out) + b_out;
      if (count == k && best[k - 1].first + kKnnAbsSlack <
                            std::min(via_a, via_b) * (1.0 - kKnnRelSlack)) {
        break;
      }
      // Widen the axis whose bound binds (the other once it is full).
      if (b_all || (!a_all && via_a <= via_b)) {
        wa *= 2;
      } else {
        wb *= 2;
      }
    }
  }
  MPICP_ASSERT(count > 0, "knn query on empty model");
  // Ascending (distance, row) order, as the reference sums.
  double acc = 0.0;
  for (int j = 0; j < count; ++j) {
    acc += targets_[m.targets_begin + best[j].second];
  }
  return acc / static_cast<double>(count);
}

std::int64_t FlatBank::rank_cell(const RankTable& rt, const double* thr,
                                 const double* x) {
  // The instance's per-feature threshold ranks pick the precomputed
  // cell, so the whole ensemble costs a few small binary searches plus
  // one load.
  std::int64_t idx = 0;
  for (int f = 0; f < rt.dim; ++f) {
    const double* T = thr + rt.thr_begin[f];
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
  return idx;
}

double FlatBank::predict_one(std::size_t i, std::span<const double> x,
                             FlatScratch& s) const {
  MPICP_ASSERT(i < models_.size(), "flat model index out of range");
  const FlatModel& m = models_[i];
  switch (m.kind) {
    case FlatKind::kTreeEnsemble: {
      // A rank-cell table answers the whole ensemble with one lookup.
      const RankTable& rt = rank_tables_[i];
      if (rt.built) {
        return cell_val_[static_cast<std::size_t>(
            rt.cells_begin + rank_cell(rt, rank_thr_.data(), x.data()))];
      }
      // Otherwise walk every tree in the node pool, in canonical order.
      double raw = m.base_score;
      for (int t = m.tree_begin; t < m.tree_end; ++t) {
        int cur = tree_roots_[t];
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
    case FlatKind::kKnn:
      return predict_knn(i, x, s);
    case FlatKind::kGam: {
      // The fused pass's sum for this one model, over the slot terms of
      // begin_query: the same bits as its fused score.
      const double* c = coef_.data() + m.coef_begin;
      double eta = 0.0;
      eta += 1.0 * c[0];
      for (int f = 0; f < m.num_bases; ++f) {
        const FlatScratch::SlotTerms& terms = s.slot_terms[static_cast<
            std::size_t>(gam_slots_[m.slot_begin + f])];
        const double* block = c + 1 + f * m.basis_size;
        for (int t = 0; t < terms.count; ++t) {
          eta += terms.val[t] * block[terms.idx[t]];
        }
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

}  // namespace mpicp::ml
