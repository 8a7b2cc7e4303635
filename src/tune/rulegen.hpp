// Decision-rule encoding of a fitted selector.
//
// Open MPI's hard-coded decision functions were produced by benchmarking
// and then *encoding the winners as decision trees translated into C*
// (Pjesivac-Grbovic et al., the paper's ref [8]). This module closes
// that loop for our framework: it compresses the selector's per-instance
// picks over a grid into a small classification tree and can render the
// tree as compilable C source — i.e. it regenerates a `coll_tuned`-style
// fixed decision function from the learned models.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "collbench/dataset.hpp"

namespace mpicp::tune {

/// One labeled grid point: an instance and the uid selected for it.
struct LabeledInstance {
  bench::Instance inst;
  int uid = 0;
};

struct RuleParams {
  int max_depth = 8;
  int min_points_per_leaf = 1;
};

/// A compact decision tree over (log2 msize, nodes, ppn).
class DecisionRules {
 public:
  /// One tree node, exposed so the flat serving lowering
  /// (tune/ruletable.hpp) and the differential tests can reproduce the
  /// tree exactly — same thresholds, same comparisons, same traversal.
  struct Node {
    int feature = -1;  ///< 0: log2 msize, 1: nodes, 2: ppn; -1: leaf
    double threshold = 0.0;
    int left = -1;
    int right = -1;
    int uid = 0;  ///< leaf label
  };

  /// Fit by recursive misclassification-minimizing splits; leaves carry
  /// the majority uid. An impure node splits even when no candidate
  /// improves the immediate misclassification (ties go to the first
  /// feature / lowest threshold): XOR-shaped winner regions only
  /// separate deeper down, and on label-distinct points an uncapped
  /// tree therefore always reaches agreement 1.0. A node whose points
  /// cannot be separated at all (identical feature vectors) terminates
  /// as a majority leaf.
  static DecisionRules fit(const std::vector<LabeledInstance>& points,
                           RuleParams params = {});

  int uid_for(const bench::Instance& inst) const;

  /// Fraction of `points` the tree classifies to their label.
  double agreement(const std::vector<LabeledInstance>& points) const;

  int num_leaves() const;
  int num_nodes() const { return static_cast<int>(nodes_.size()); }

  /// Render as a C function `int <name>(size_t msize, int nodes, int
  /// ppn)` returning the uid — the artifact a library maintainer would
  /// paste into a coll component. The integer comparisons it emits are
  /// exactly equivalent to the tree's double comparisons for every
  /// integer input (tests/test_ruletable.cpp compiles and executes the
  /// output to prove it).
  std::string to_c_code(const std::string& function_name) const;

  /// The node pool (node 0 is the root; children index into it).
  const std::vector<Node>& nodes() const { return nodes_; }

  /// The feature encoding the tree splits on: 0 is log2(max(msize, 1)),
  /// 1 is nodes, 2 is ppn. The one definition of the log2 message-size
  /// encoding: RuleTable derives its integer bounds from it, so both
  /// take the same branch on every instance.
  static double feature_of(const bench::Instance& inst, int f);

 private:
  int build(std::vector<const LabeledInstance*> points, int depth,
            const RuleParams& params);
  void render(int node, int indent, std::string& out) const;

  std::vector<Node> nodes_;
};

}  // namespace mpicp::tune
