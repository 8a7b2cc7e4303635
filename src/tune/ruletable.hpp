// Distilled rule table: an offline export of a fitted bank
// (DESIGN.md §14).
//
// Open MPI's default decision logic is fast because it is branchy
// thresholds compiled into the library (Pjesivac-Grbovic et al., the
// paper's ref [8]); Hutter et al. (arXiv:1211.0906) show compact
// surrogate structures retain most of a full model's decision quality.
// This module produces that artifact: a fitted selector's picks over a
// grid are compressed into a small classification tree over
// (log2 msize, nodes, ppn) — `RuleTable`, one flat node pool whose
// dispatch is a handful of array reads: no model evaluation, no
// virtual calls, no allocation. The same pool renders as C source
// (`to_c_code`) for a library's hard-coded decision function, and
// persists in a checksummed envelope. The table is lossy (its
// agreement with the bank is measured on the distillation grid only),
// so the serving registry (tune/registry.hpp) never answers from it:
// every served selection is the compiled bank's exact argmin.
//
// Dispatch runs on *integer bounds*: `feature_of(inst, f) < threshold`
// is monotone in the raw instance value, so a binary search with
// feature_of finds the smallest raw value on which the comparison
// flips. uid_for compares (msize, nodes, ppn) against those bounds —
// no log2 in the hot path — and to_c_code prints the same bounds, so
// the table and the emitted C take the split's branch on every
// possible instance. tests/test_ruletable.cpp compiles and executes
// the generated C to pin the split thresholds, the table, a loaded
// copy and the C against each other.
#pragma once

#include <cstdint>
#include <filesystem>
#include <span>
#include <string>
#include <vector>

#include "collbench/dataset.hpp"

namespace mpicp::tune {

class CompiledBank;

/// One labeled grid point: an instance and the uid selected for it.
struct LabeledInstance {
  bench::Instance inst;
  int uid = 0;
};

struct RuleParams {
  int max_depth = 8;
};

/// The feature encoding the rules split on: 0 is log2(max(msize, 1)),
/// 1 is nodes, 2 is ppn. The one definition of the log2 message-size
/// encoding: the split search thresholds it and the integer bounds
/// are derived from it.
double feature_of(const bench::Instance& inst, int f);

/// A compact decision tree over (log2 msize, nodes, ppn) in one flat
/// node pool: allocation-free ns-scale dispatch, C export and
/// checksummed persistence.
class RuleTable {
 public:
  /// One node of the pool. Node 0 is the root and children always
  /// follow their parent (preorder).
  struct Node {
    int feature = -1;  ///< 0: log2 msize, 1: nodes, 2: ppn; -1: leaf
    double threshold = 0.0;  ///< split on feature_of(inst, feature)
    int left = -1;   ///< inner: left child; leaf: the uid
    int right = -1;  ///< inner: right child; leaf: -1
    /// Derived, never serialized: for an inner node, `raw feature <
    /// bound` takes the same branch as `feature_of(inst, feature) <
    /// threshold` on every possible instance.
    std::uint64_t bound = 0;
  };

  RuleTable() = default;

  /// Fit by recursive misclassification-minimizing splits; leaves carry
  /// the majority uid. An impure node splits even when no candidate
  /// improves the immediate misclassification (ties go to the first
  /// feature / lowest threshold): XOR-shaped winner regions only
  /// separate deeper down, and on label-distinct points an uncapped
  /// tree therefore always reaches agreement 1.0. A node whose points
  /// cannot be separated at all (identical feature vectors) terminates
  /// as a majority leaf. Stamps agreement() on `points`.
  static RuleTable fit(const std::vector<LabeledInstance>& points,
                       RuleParams params = {});

  bool empty() const { return nodes_.empty(); }
  int num_nodes() const { return static_cast<int>(nodes_.size()); }
  int num_leaves() const;

  /// The node pool, read-only.
  const std::vector<Node>& nodes() const { return nodes_; }

  /// Fraction of the points the table was fitted on that it classifies
  /// to their label — for a distilled table, its agreement with the
  /// bank on the distillation grid. Stamped by fit() and preserved
  /// across save/load, so a consumer of the exported table can judge
  /// its fidelity.
  double agreement() const { return agreement_; }
  void set_agreement(double agreement) { agreement_ = agreement; }

  /// ns-scale dispatch: one walk over the node pool comparing the raw
  /// (msize, nodes, ppn) against the integer bounds. Never allocates
  /// and never throws on a non-empty table.
  int uid_for(const bench::Instance& inst) const;

  /// Render as a C function `int <name>(unsigned long long msize, int
  /// nodes, int ppn)` returning the uid — the artifact a library
  /// maintainer would paste into a coll component. Its comparisons are
  /// the integer bounds uid_for walks.
  std::string to_c_code(const std::string& function_name) const;

  /// Persistence in a sealed envelope (ml/io.hpp): the header carries
  /// the payload byte count and FNV-1a checksum, so a truncated or
  /// bit-flipped table fails loudly at load instead of silently
  /// serving wrong rules. load() also rejects any node pool whose
  /// child indices do not point strictly forward (fit emits preorder),
  /// so every loaded walk terminates. Version 3 is the only version
  /// written or loaded (any other version raises ParseError).
  void save(const std::filesystem::path& path) const;
  static RuleTable load(const std::filesystem::path& path);

 private:
  int build(std::vector<const LabeledInstance*> points, int depth,
            const RuleParams& params);
  /// Derive every inner node's bound from its threshold.
  void derive_bounds();
  void render(int node, int indent, std::string& out) const;

  std::vector<Node> nodes_;
  double agreement_ = 0.0;
};

/// Everything one distillation produces: the fitted table (agreement
/// with the bank stamped) and the size of the grid it was fitted on.
struct RuleDistillation {
  RuleTable table;
  std::size_t grid_points = 0;  ///< labeled training grid size
};

/// Distill a compiled bank into decision rules: label `grid` with the
/// bank's argmin (CompiledBank::select_grid) and fit a table on the
/// labels. Throws when the grid is empty or the bank cannot serve one
/// of its instances.
[[nodiscard]] RuleDistillation distill(const CompiledBank& bank,
                                       std::span<const bench::Instance> grid,
                                       RuleParams params = {});

}  // namespace mpicp::tune
