// Flattened (compiled) model bank — the treelite/XGBoost-style lowering
// of the heterogeneous per-uid `Regressor` objects into contiguous
// structure-of-arrays pools:
//
//   - every GBT/RF tree of every model lives in one node array with
//     per-tree root offsets (pointer-free, cache-friendly traversal),
//   - KNN points/targets are packed row-major with the standard
//     scaler folded into per-model coefficient strips, and each model
//     carries a factored grid of its distinct coordinates for an exact
//     windowed neighbour search (below),
//   - GAM / linear / median models reduce to packed coefficient blocks,
//     with bitwise-identical spline bases deduplicated into shared
//     "evaluation slots" so each distinct basis is evaluated once per
//     query instead of once per model.
//
// A bank is built in one step and never changes. Serving is
// allocation-free: all per-query state lives in a caller-owned
// `FlatScratch` that only grows on first use. Predictions are
// bit-identical to the interpreted `Regressor::predict_one` — the
// lowering reorders memory, never arithmetic.
//
// Tree ensembles whose distinct-threshold structure is small enough
// carry a *rank-cell table* (DESIGN.md §16): the exact prediction
// precomputed for every cell of the model's threshold-rank grid, so a
// query is a few small binary searches plus one load per model. Models
// over the cell cap (continuous features) walk their trees in the node
// pool. The table is derived data, built once per model, in model
// order, and reproduces the interpreted regressor bit for bit.
//
// Two bank-wide structures are derived after the last model (DESIGN.md
// §11, §16), so that argmin() costs one pass over the bank rather than
// one predict_one per model:
//
//   - a tree bank whose every model has a rank-cell table gets one
//     *argmin table* over the union of the models' threshold strips: the
//     winning model index of every union cell, so a query is one
//     upper_bound per feature plus one load;
//   - every GAM is *fused*: GAMs with the same basis slots keep their
//     coefficients side by side in one transposed block, each slot
//     contributes only its non-zero basis terms (read from a per-slot
//     table of integer rows where the feature is an integer), and exp()
//     runs only on the models whose clamped score can still be the
//     least. The lowering requires finite coefficients, so a dropped
//     zero term is 0 x finite and cannot change a score.
//
// Both reproduce the per-model argmin bit for bit: same predictions,
// same usability screen, ties to the lowest model index.
//
// KNN models carry a *factored grid* (DESIGN.md §11), also derived
// data: the scaled points factor as (distinct axis-0 values, i.e.
// log2 msize) × (distinct tuples of the other axes), and every
// (a, b) cell lists its rows in row order (cells may be empty). A
// query takes the W nearest axis-0 values and the W nearest b-tuples,
// computes the reference `sq_dist` once per non-empty candidate cell
// and keeps the k smallest by (distance, row) — the reference's tie
// rule (ml/knn.hpp). It accepts the answer only when the k-th distance
// lies below a lower bound on every point outside the windows, and
// widens the windows otherwise, up to every cell; so the answer is
// exact with no second search. Models whose grid exceeds
// kMaxKnnGridCells (continuous features) scan every point instead.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "ml/learner.hpp"
#include "ml/spline.hpp"
#include "support/aligned.hpp"

namespace mpicp::ml {

class RegressionTree;
class KnnRegressor;
class GamRegressor;

struct FlatTreeNode {
  int feature = -1;  ///< -1: leaf
  double threshold = 0.0;
  int left = -1;   ///< global node index
  int right = -1;  ///< global node index
  double value = 0.0;
};

/// Caps of a compiled KNN model: its k (the size of the per-query
/// neighbour buffer) and its feature count (the scaled query buffer).
inline constexpr int kMaxKnnK = 64;
inline constexpr int kMaxKnnDim = 4;

/// One deduplicated (basis, feature-index) evaluation unit shared by
/// every GAM whose smoother for that feature is bitwise identical.
struct FlatBasisSlot {
  int basis = 0;    ///< index into the basis pool
  int feature = 0;  ///< which query feature it consumes
};

enum class FlatKind : int {
  kTreeEnsemble = 0,
  kKnn = 1,
  kGam = 2,
  kLinear = 3,
  kConstant = 4,
};

/// Per-model metadata: offsets into the shared pools.
struct FlatModel {
  FlatKind kind = FlatKind::kConstant;
  bool exp_link = false;  ///< apply exp() to the raw score
  // Tree ensembles.
  int tree_begin = 0;  ///< range into the tree-root pool
  int tree_end = 0;
  double base_score = 0.0;
  bool mean_over_trees = false;  ///< RF averages, GBT sums
  // KNN.
  int k = 0;
  int points_begin = 0;   ///< element offset into the point pool
  int num_points = 0;
  int point_dim = 0;
  int targets_begin = 0;  ///< row offset into the target pool
  int scaler_begin = -1;  ///< offset into the scaler pools; -1: unscaled
  // GAM.
  int slot_begin = 0;  ///< range into the per-model slot-index pool
  int num_bases = 0;   ///< one smoother per feature
  int basis_size = 0;
  int eta_at = 0;  ///< its score's index in FlatScratch::gam_eta
  // Coefficient block (GAM beta / linear beta / constant).
  int coef_begin = 0;
  int coef_len = 0;
};

/// Reusable per-query scratch. Owned by the caller (typically
/// thread_local); every buffer grows to the bank's dimensions on first
/// use and is never reallocated afterwards.
struct FlatScratch {
  std::array<double, kMaxKnnDim> scaled{};  ///< z-scaled KNN query
  /// The nearest b-tuples as (partial distance, tuple), ascending.
  std::vector<std::pair<double, int>> knn_bwin;
  /// The k nearest rows so far as (distance, row), ascending.
  std::array<std::pair<double, int>, kMaxKnnK> knn_best{};
  /// Each basis slot's non-zero terms on the query (into an integer
  /// row, or into term_idx/term_val when evaluated), and every GAM's
  /// clamped score in the fused pass.
  struct SlotTerms {
    const std::int32_t* idx = nullptr;
    const double* val = nullptr;
    int count = 0;
  };
  std::vector<SlotTerms> slot_terms;
  std::vector<std::int32_t> term_idx;  ///< slot-major, max basis size each
  std::vector<double> term_val;
  std::vector<double> gam_eta;
};

class FlatBank {
 public:
  FlatBank() = default;  ///< an empty bank

  /// Lower the fitted regressors into the pools (model i is models[i])
  /// and derive every structure serving reads. Raises kInvalidArgument
  /// for regressor types it cannot compile, and for a GAM with a
  /// non-finite coefficient.
  explicit FlatBank(std::span<const Regressor* const> models);

  std::size_t size() const { return models_.size(); }
  const FlatModel& model(std::size_t i) const { return models_[i]; }
  std::size_t num_basis_slots() const { return slots_.size(); }

  /// Start a query on `x`: grows the scratch buffers if needed and
  /// fills every basis slot's non-zero terms. Must be called once per
  /// query vector before any predict_one() on it.
  void begin_query(std::span<const double> x, FlatScratch& scratch) const;

  /// The index of the least usable (finite, non-negative) prediction on
  /// `x`, the lowest index on ties, or -1 when none is usable; `excluded`
  /// receives the number of unusable predictions. Bit-identical to
  /// screening every predict_one in index order. Calls begin_query.
  int argmin(std::span<const double> x, FlatScratch& scratch,
             std::size_t& excluded) const;

  /// Predict with model `i` on `x`, after begin_query(x, scratch).
  /// Bit-identical to the interpreted regressor's predict_one, and
  /// allocation-free once `scratch` has warmed up. Tree ensembles with a
  /// rank-cell table are one table lookup; those without walk their
  /// trees in the node pool; a GAM sums its terms as the fused pass
  /// does; every other kind runs its flat kernel.
  double predict_one(std::size_t i, std::span<const double> x,
                     FlatScratch& scratch) const;

  /// True when tree-ensemble model `i` carries a rank-cell table, i.e.
  /// predict_one answers it with a table lookup.
  bool has_rank_table(std::size_t i) const { return rank_tables_[i].built; }

  /// True when KNN model `i` is searched through its factored grid;
  /// false for a model over kMaxKnnGridCells, which scans every point.
  bool has_knn_grid(std::size_t i) const { return knn_grids_[i].built; }

  /// True when the bank has an argmin table, i.e. argmin() is one
  /// table lookup.
  bool has_argmin_table() const { return argmin_table_.built; }

  /// True when basis slot `s` reads integer feature values from a table
  /// of precomputed basis rows.
  bool has_int_rows(std::size_t s) const { return slot_rows_[s].built; }

 private:
  /// Lower one fitted regressor into the pools, with its rank-cell
  /// table or KNN grid.
  void lower(const Regressor& model);
  void lower_trees(const std::vector<RegressionTree>& trees, FlatModel& m);
  /// Derive the rank-cell table of tree-ensemble model `mi` / the grid
  /// of KNN model `mi` from the canonical pools, appending to the
  /// derived ones. lower() calls them once, for the model it lowers.
  void build_rank_table(std::size_t mi);
  void build_knn_grid(std::size_t mi);
  double predict_knn(std::size_t i, std::span<const double> x,
                     FlatScratch& scratch) const;
  void lower_knn(const KnnRegressor& knn, FlatModel& m);
  void lower_gam(const GamRegressor& gam, FlatModel& m);
  int intern_basis(const BSplineBasis& basis);
  int intern_slot(int basis, int feature);
  /// Derive the integer-row table of the newly interned slot `slot`.
  void build_int_rows(std::size_t slot);
  void build_argmin_table();
  void build_gam_groups();
  /// Fill scratch.gam_eta with every GAM's clamped score from the slot
  /// terms of begin_query; returns the largest score that can still win
  /// (the least plus kExpMargin), or +inf when no score is a number.
  double fused_gam_eta(FlatScratch& s) const;
  std::span<const double> point_row(const FlatModel& m, int p) const {
    return {points_.data() +
                static_cast<std::size_t>(m.points_begin) +
                static_cast<std::size_t>(p) * m.point_dim,
            static_cast<std::size_t>(m.point_dim)};
  }

  std::vector<FlatModel> models_;
  std::vector<FlatTreeNode> nodes_;
  std::vector<int> tree_roots_;
  std::vector<double> points_;
  std::vector<double> targets_;
  std::vector<double> scaler_mean_;
  std::vector<double> scaler_inv_std_;
  std::vector<BSplineBasis> bases_;
  std::vector<FlatBasisSlot> slots_;
  std::vector<int> gam_slots_;  ///< per model-feature: slot index
  std::vector<double> coef_;
  int max_basis_size_ = 0;

  // Rank-cell tables (derived): every comparison of
  // a tree-ensemble model tests x[f] against one of the model's few
  // distinct thresholds, so the instance's per-feature threshold ranks
  // fix the outcome of every comparison — and the model's whole
  // prediction is constant on each rank cell. build_rank_table()
  // stores the exact prediction of every cell (each leaf's value added
  // to its box of cells, in canonical tree order), turning dispatch
  // into a handful of small binary searches plus one load
  // (rank_cell). Models whose cell count exceeds kMaxRankCells
  // (continuous features) skip the table and serve through the plain
  // node-pool walk.
  static constexpr int kMaxRankFeatures = 8;
  static constexpr std::size_t kMaxRankCells = std::size_t{1} << 14;
  struct RankTable {
    bool built = false;
    int dim = 0;  ///< features the model's trees reference
    std::array<std::int32_t, kMaxRankFeatures> thr_begin{};
    std::array<std::int32_t, kMaxRankFeatures> thr_len{};
    std::array<std::int32_t, kMaxRankFeatures> stride{};
    std::int64_t cells_begin = 0;
  };
  /// The cell of feature vector `x` in `rt` (whose strips start at
  /// `thr`), relative to cells_begin.
  static std::int64_t rank_cell(const RankTable& rt, const double* thr,
                                const double* x);

  std::vector<RankTable> rank_tables_;  ///< per model
  support::AlignedVec<double> rank_thr_;  ///< sorted distinct thresholds
  support::AlignedVec<double> cell_val_;  ///< final per-cell predictions

  // Argmin table (derived after the last model): when every model is a tree
  // ensemble with a rank-cell table, the bank's argmin is constant on
  // each cell of the union of the models' threshold strips. Its strips
  // live in argmin_thr_ (thr_begin relative to it), and each cell keeps
  // the winning model index, kNoModel when no prediction is usable.
  // Banks whose table would exceed kMaxArgminBytes keep the per-model
  // loop.
  static constexpr std::uint16_t kNoModel = 0xffff;
  static constexpr std::size_t kMaxArgminBytes = std::size_t{1} << 20;
  RankTable argmin_table_;
  std::vector<double> argmin_thr_;
  std::vector<std::uint16_t> argmin_cell_;
  /// Unusable predictions per cell; empty when every cell has none.
  std::vector<std::uint16_t> argmin_excluded_;

  // Integer basis rows (derived per slot): the non-zero terms of the
  // basis at every integer in [ceil(lo), floor(hi)], then at lo and at
  // hi (the clamp ends), each evaluated by evaluate_into. A slot whose
  // range is not finite, spans more than kMaxIntRows integers, or has a
  // row with more than kRowTerms non-zero terms evaluates every query.
  static constexpr int kRowTerms = 4;
  static constexpr double kMaxIntRows = 4096.0;
  struct IntRow {
    std::int32_t count = 0;
    std::array<std::int32_t, kRowTerms> idx{};
    std::array<double, kRowTerms> val{};
  };
  struct IntRows {
    bool built = false;
    double first = 0.0;      ///< ceil(lo)
    std::int32_t count = 0;  ///< integer rows; the lo and hi rows follow
    std::int32_t begin = 0;  ///< into int_rows_
  };
  std::vector<IntRows> slot_rows_;  ///< per slot
  std::vector<IntRow> int_rows_;

  // Fused GAM groups (derived after the last model): the GAMs of one
  // slot list, side by side. Row t of a group's block holds coefficient
  // t of each member, in member (index) order.
  /// Scores further than this above the least cannot win after exp():
  /// exp(a + 1e-9) / exp(a) - 1 ~ 1e-9 is millions of ulps, and libm's
  /// exp is accurate to within 1 ulp.
  static constexpr double kExpMargin = 1e-9;
  struct GamGroup {
    int num_models = 0;
    int num_bases = 0;
    int basis_size = 0;
    int slot_begin = 0;  ///< the members' shared range of gam_slots_
    std::int64_t coef_begin = 0;  ///< into gam_coef_t_
    int eta_begin = 0;            ///< into FlatScratch::gam_eta
  };
  std::vector<GamGroup> gam_groups_;
  std::vector<double> gam_coef_t_;
  int num_gams_ = 0;

  // Factored KNN grids (derived). Per model: its
  // sorted distinct axis-0 values and its distinct b-tuples (axes
  // 1..dim-1, one strip of b_len values per axis) in grid_coord_, and
  // a_len * b_len + 1 row offsets in grid_cell_ (cell a * b_len + b)
  // into its rows in grid_rows_.
  static constexpr std::size_t kMaxKnnGridCells = std::size_t{1} << 16;
  struct KnnGrid {
    bool built = false;
    int a_len = 0;
    int b_len = 0;
    std::int32_t coord_begin = 0;  ///< axis-0 strip, then the b strips
    std::int32_t cell_begin = 0;
    std::int32_t rows_begin = 0;
    std::int32_t group_begin = 0;  ///< b-tuple groups of one axis-1 value
    int num_groups = 0;
  };
  std::vector<KnnGrid> knn_grids_;  ///< per model
  std::vector<double> grid_coord_;
  std::vector<std::int32_t> grid_cell_;
  std::vector<std::int32_t> grid_rows_;
  std::vector<std::int32_t> grid_group_;
  int max_grid_b_ = 0;  ///< largest b_len: sizes the scratch
};

}  // namespace mpicp::ml
