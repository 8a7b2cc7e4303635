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
// uid_for bit for bit (same thresholds, same traversal), and both match
// the C source `DecisionRules::to_c_code` emits —
// tests/test_ruletable.cpp compiles and executes the generated C to pin
// all three against each other on every grid point.
//
// Dispatch is one walk over the node pool on *integer bounds*:
// `log2(msize) < thr` is monotone in msize, so a binary search with
// the tree's own feature transform (`DecisionRules::feature_of`) finds
// the smallest raw value on which the comparison flips, and dispatch
// compares (msize, nodes, ppn) directly — no log2 in the hot path,
// provably the same branch as the tree on every possible instance.
#pragma once

#include <cstdint>
#include <filesystem>
#include <span>
#include <vector>

#include "collbench/dataset.hpp"
#include "tune/rulegen.hpp"

namespace mpicp::tune {

class CompiledBank;

/// Flat SoA lowering of a DecisionRules tree: allocation-free ns-scale
/// dispatch and checksummed persistence.
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

  /// ns-scale dispatch: one walk over the node pool comparing the raw
  /// (msize, nodes, ppn) against the integer bounds. Never allocates
  /// and never throws on a non-empty table.
  int uid_for(const bench::Instance& inst) const;

  /// Persistence with the model-file envelope discipline: the header
  /// carries the payload byte count and FNV-1a checksum, so a truncated
  /// or bit-flipped table fails loudly at load instead of silently
  /// serving wrong rules. load() also rejects any node pool whose
  /// child indices do not point strictly forward (the lowering emits
  /// preorder), so every loaded walk terminates. Version 3 is the only
  /// version written or loaded (any other version raises ParseError).
  void save(const std::filesystem::path& path) const;
  static RuleTable load(const std::filesystem::path& path);

 private:
  /// Derive ithr_ from the node pool.
  void build_integer_bounds();

  // SoA node pool in DecisionRules order (node 0 is the root, children
  // always after their parent): feature_[i] is 0 (log2 msize), 1
  // (nodes) or 2 (ppn) for an inner node and -1 for a leaf; leaves
  // store their uid in left_[i].
  std::vector<std::int8_t> feature_;
  std::vector<double> threshold_;
  std::vector<std::int32_t> left_;
  std::vector<std::int32_t> right_;
  double agreement_ = 0.0;

  // Integerized thresholds (derived, never serialized): for an inner
  // node, `raw feature < ithr_[i]` takes the same branch as the tree's
  // `feature_of(inst, f) < threshold_[i]` on every possible instance
  // (see integer_bound in ruletable.cpp).
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
