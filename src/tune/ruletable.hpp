// Distilled rule table: an offline export of a fitted bank
// (DESIGN.md §14).
//
// Open MPI's default decision logic is fast because it is branchy
// thresholds compiled into the library (Pjesivac-Grbovic et al., the
// paper's ref [8]); Hutter et al. (arXiv:1211.0906) show compact
// surrogate structures retain most of a full model's decision quality.
// This module produces that artifact: a fitted selector's picks over a
// grid are compressed into a `DecisionRules` tree (tune/rulegen.hpp)
// and lowered into `RuleTable` — a flat SoA threshold structure over
// (log2 msize, nodes, ppn) whose dispatch is a handful of array reads:
// no model evaluation, no virtual calls, no allocation. The distilled
// tree exports as C source (`DecisionRules::to_c_code`) for a library's
// hard-coded decision function. The table is lossy (its agreement with
// the bank is measured on the distillation grid only), so the serving
// registry (tune/registry.hpp) never answers from it: every served
// selection is the compiled bank's exact argmin.
//
// Exact equivalence is the contract: the table reproduces the tree's
// uid_for bit for bit (same thresholds, same comparisons, same
// traversal), and both match the C source `DecisionRules::to_c_code`
// emits — tests/test_ruletable.cpp compiles and executes the generated
// C to pin all three against each other on every grid point.
//
// Dispatch runs through a *blocked* branch-free layout (DESIGN.md §16):
// the first K tree levels packed level-order into one cache-line-
// aligned block walked by predicated index arithmetic, deeper subtrees
// spilling into the flat SoA pool; `select_grid_into` walks batches of
// independent instances level-by-level so their comparisons pipeline.
// The double thresholds are additionally rewritten into *integer
// bounds*: `log2(msize) < thr` is monotone in msize, so a binary
// search with the exact legacy transform finds the smallest raw value
// on which the comparison flips, and dispatch compares (msize, nodes,
// ppn) directly — no log2 in the hot path, provably the same branch on
// every possible instance. The PR 8 pointer-free walk survives as
// `uid_for_legacy`, the differential reference the blocked layout is
// pinned against.
#pragma once

#include <cstdint>
#include <filesystem>
#include <span>
#include <vector>

#include "collbench/dataset.hpp"
#include "support/aligned.hpp"
#include "tune/rulegen.hpp"

namespace mpicp::tune {

class CompiledBank;

/// Flat SoA lowering of a DecisionRules tree: allocation-free ns-scale
/// dispatch, batched grid selection, checksummed persistence.
class RuleTable {
 public:
  RuleTable() = default;

  /// Lower a fitted tree into the flat form. Node order, thresholds and
  /// comparisons are preserved exactly, so uid_for is bit-identical to
  /// the tree's.
  static RuleTable lower(const DecisionRules& rules);

  bool empty() const { return feature_.empty(); }
  int num_nodes() const { return static_cast<int>(feature_.size()); }
  int num_leaves() const;

  /// Fraction of the distillation grid on which this table selects
  /// identically to the bank it was distilled from — stamped by
  /// distill() and preserved across save/load, so a consumer of the
  /// exported table can judge its fidelity. 0 when the table was
  /// lowered directly from a hand-built tree.
  double agreement() const { return agreement_; }
  void set_agreement(double agreement) { agreement_ = agreement; }

  /// Instances walked per level by the batched grid kernel.
  static constexpr std::size_t kDispatchBatch = 16;

  /// Blocked levels cap: 2^8-1 = 255 inner slots (~2 KB of thresholds)
  /// covers the default depth-8 distillation entirely, so the whole hot
  /// walk usually never leaves the block.
  static constexpr int kDefaultBlockDepthCap = 8;

  /// ns-scale dispatch through the blocked branch-free layout:
  /// predicated index steps through the packed prefix, then the flat
  /// pool finishes any spill. Never allocates and never throws on a
  /// non-empty table.
  int uid_for(const bench::Instance& inst) const;

  /// The PR 8 data-dependent walk over the flat node pool — the
  /// differential reference for the blocked layout (tests and the
  /// layout-comparison bench). Same result, branchier traversal.
  int uid_for_legacy(const bench::Instance& inst) const;

  /// Batched dispatch into a caller-owned buffer of grid.size()
  /// entries: kDispatchBatch instances walk the block level-by-level
  /// together (their comparisons pipeline), batches parallelized over
  /// the pool. Allocation-free per instance.
  void select_grid_into(std::span<const bench::Instance> grid,
                        std::span<int> out) const;

  /// Allocating convenience wrapper around select_grid_into.
  [[nodiscard]] std::vector<int> select_grid(
      std::span<const bench::Instance> grid) const;

  /// Persistence with the model-file envelope discipline: the header
  /// carries the payload byte count and FNV-1a checksum, so a truncated
  /// or bit-flipped table fails loudly at load instead of silently
  /// serving wrong rules. The version-2 envelope records the blocked
  /// geometry; it is the only version written or loaded (any other
  /// version raises ParseError).
  void save(const std::filesystem::path& path) const;
  static RuleTable load(const std::filesystem::path& path);

 private:
  void build_blocked();

  // SoA node pool in DecisionRules order (node 0 is the root):
  // feature_[i] is 0 (log2 msize), 1 (nodes) or 2 (ppn) for an inner
  // node and -1 for a leaf; leaves store their uid in left_[i].
  std::vector<std::int8_t> feature_;
  std::vector<double> threshold_;
  std::vector<std::int32_t> left_;
  std::vector<std::int32_t> right_;
  double agreement_ = 0.0;

  // Blocked branch-free prefix (derived from the pool above; only the
  // geometry is serialized). Exit slots hold indices into the node
  // pool: a leaf when the path terminated inside the block, or the
  // root of a spill subtree deeper than the block. Thresholds are the
  // integerized bounds: `u < blk_ithr_` takes the same branch as the
  // legacy `feature(u) < threshold_` on every possible instance (see
  // integer_bound in ruletable.cpp); `ithr_` is the same rewrite for
  // the whole node pool, used by the spill walk.
  int block_depth_cap_ = kDefaultBlockDepthCap;
  int blk_levels_ = 0;
  support::AlignedVec<std::uint64_t> blk_ithr_;
  support::AlignedVec<std::int32_t> blk_feat_;
  support::AlignedVec<std::int32_t> blk_exit_;
  std::vector<std::uint64_t> ithr_;
};

/// Everything one distillation produces: the fitted tree, its flat
/// lowering (agreement stamped), and the fidelity account against the
/// bank that labeled the grid.
struct RuleDistillation {
  DecisionRules rules;
  RuleTable table;
  double agreement = 0.0;      ///< table picks == bank picks, fraction
  std::size_t grid_points = 0; ///< labeled training grid size
};

/// Distill a compiled bank into decision rules: label `grid` with the
/// bank's batched argmin (CompiledBank::select_grid), fit a tree on the
/// labels, lower it, and recount the table's agreement against the
/// labels empirically. Throws when the grid is empty or the bank cannot
/// serve one of its instances.
[[nodiscard]] RuleDistillation distill(const CompiledBank& bank,
                                       std::span<const bench::Instance> grid,
                                       RuleParams params = {});

}  // namespace mpicp::tune
