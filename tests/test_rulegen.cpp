// Tests for fitting decision rules (RuleTable::fit) and the guideline
// checker.
#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>

#include "collbench/guidelines.hpp"
#include "simnet/machine.hpp"
#include "tune/ruletable.hpp"

namespace mpicp::tune {
namespace {

std::vector<LabeledInstance> threshold_labels() {
  // Ground truth: uid 1 below 4 KiB, uid 2 from 4 KiB on, except at
  // ppn 1 where uid 3 always wins.
  std::vector<LabeledInstance> points;
  for (const int n : {2, 4, 8, 16}) {
    for (const int ppn : {1, 4, 8}) {
      for (const std::uint64_t m : {64u, 1024u, 8192u, 131072u}) {
        int uid = m < 4096 ? 1 : 2;
        if (ppn == 1) uid = 3;
        points.push_back({{n, ppn, m}, uid});
      }
    }
  }
  return points;
}

TEST(Rulegen, PerfectlySeparableGridIsLearnedExactly) {
  const auto points = threshold_labels();
  const RuleTable rules = RuleTable::fit(points, {.max_depth = 6});
  EXPECT_DOUBLE_EQ(rules.agreement(), 1.0);
  // Generalization inside the boxes.
  EXPECT_EQ(rules.uid_for({6, 6, 100}), 1);
  EXPECT_EQ(rules.uid_for({6, 6, 1u << 20}), 2);
  EXPECT_EQ(rules.uid_for({6, 1, 100}), 3);
}

TEST(Rulegen, DepthCapTradesAccuracyForSize) {
  const auto points = threshold_labels();
  const RuleTable shallow =
      RuleTable::fit(points, {.max_depth = 1});
  const RuleTable deep = RuleTable::fit(points, {.max_depth = 8});
  EXPECT_LE(shallow.num_leaves(), 2);
  EXPECT_GE(deep.agreement(), shallow.agreement());
}

TEST(Rulegen, PureGridYieldsSingleLeaf) {
  std::vector<LabeledInstance> points;
  for (const int n : {2, 4}) points.push_back({{n, 1, 64}, 7});
  const RuleTable rules = RuleTable::fit(points);
  EXPECT_EQ(rules.num_leaves(), 1);
  EXPECT_EQ(rules.uid_for({32, 32, 1u << 22}), 7);
}

TEST(Rulegen, CCodeContainsAllLeafUids) {
  const auto points = threshold_labels();
  const RuleTable rules = RuleTable::fit(points, {.max_depth = 6});
  const std::string code = rules.to_c_code("select_algo");
  EXPECT_NE(code.find("int select_algo"), std::string::npos);
  EXPECT_NE(code.find("return 1;"), std::string::npos);
  EXPECT_NE(code.find("return 2;"), std::string::npos);
  EXPECT_NE(code.find("return 3;"), std::string::npos);
  EXPECT_NE(code.find("msize <"), std::string::npos);
  EXPECT_NE(code.find("ppn <"), std::string::npos);
}

TEST(Rulegen, SavedAndLoadedTableRendersTheSameC) {
  // The C export reads only the node pool and its derived integer
  // bounds, so a loaded table exports byte-identical source.
  const auto points = threshold_labels();
  const RuleTable rules = RuleTable::fit(points, {.max_depth = 6});
  const auto path = std::filesystem::temp_directory_path() /
                    "mpicp_rulegen_saved_c.txt";
  rules.save(path);
  const RuleTable loaded = RuleTable::load(path);
  std::filesystem::remove(path);
  EXPECT_EQ(loaded.to_c_code("select_algo"), rules.to_c_code("select_algo"));
}

TEST(Rulegen, RejectsEmptyGrid) {
  EXPECT_THROW(RuleTable::fit({}), Error);
}

TEST(Rulegen, XorLabelPatternReachesFullAgreement) {
  // No single split improves misclassification on an XOR layout — the
  // fit must still take a tie-split and separate the quadrants one
  // level down instead of terminating impure.
  const std::vector<LabeledInstance> points = {
      {{2, 1, 64}, 1},
      {{2, 8, 64}, 2},
      {{16, 1, 64}, 2},
      {{16, 8, 64}, 1},
  };
  const RuleTable rules = RuleTable::fit(points, {.max_depth = 8});
  EXPECT_DOUBLE_EQ(rules.agreement(), 1.0);
  EXPECT_EQ(rules.num_leaves(), 4);
}

TEST(Rulegen, DuplicateInstancesWithConflictingLabelsTerminate) {
  // Identical feature vectors with different labels admit no separating
  // split; a candidate whose child would hold zero points must be
  // skipped, not recursed on (this used to loop forever when a leaf
  // could hold zero points). The node terminates as a majority leaf.
  std::vector<LabeledInstance> points;
  for (int rep = 0; rep < 3; ++rep) points.push_back({{4, 2, 1024}, 1});
  points.push_back({{4, 2, 1024}, 2});
  const RuleTable rules = RuleTable::fit(points, {.max_depth = 64});
  EXPECT_EQ(rules.num_leaves(), 1);
  EXPECT_EQ(rules.uid_for({4, 2, 1024}), 1);
  EXPECT_DOUBLE_EQ(rules.agreement(), 0.75);
}

TEST(Rulegen, AdjacentDoubleThresholdsCannotRecurseForever) {
  // These two message sizes have *adjacent doubles* as their log2
  // features, and the candidate midpoint rounds onto the lower one —
  // so the "left" child of the only available split holds zero points.
  // The degenerate-split guard must skip that candidate; accepting it
  // used to recurse on an unchanged point set forever.
  constexpr std::uint64_t kLower = 4503599627370507ull;  // 2^52 + 11
  std::vector<LabeledInstance> points;
  points.push_back({{2, 1, kLower}, 1});
  points.push_back({{2, 1, kLower + 1}, 2});
  points.push_back({{2, 1, kLower + 1}, 1});
  const RuleTable rules = RuleTable::fit(points, {.max_depth = 1024});
  // The impure node terminates as a majority leaf.
  EXPECT_EQ(rules.num_leaves(), 1);
  EXPECT_DOUBLE_EQ(rules.agreement(), 2.0 / 3.0);
}

TEST(Guidelines, ChecksRunAndReportFiniteRatios) {
  const auto results = bench::check_guidelines(
      sim::hydra_machine(), 4, 4, {64, 16384, 1048576});
  EXPECT_EQ(results.size(), 5u * 3u);  // five guidelines, three sizes
  for (const auto& r : results) {
    EXPECT_GT(r.lhs_us, 0.0) << r.guideline;
    EXPECT_GT(r.rhs_us, 0.0) << r.guideline;
    EXPECT_TRUE(std::isfinite(r.factor));
    EXPECT_EQ(r.violated, r.lhs_us > r.rhs_us * 1.10);
  }
}

TEST(Guidelines, GatherNeverLosesToAllgatherBadly) {
  // Structural sanity: gather moves strictly less data than allgather,
  // so the default gather must not lose by an order of magnitude.
  const auto results = bench::check_guidelines(
      sim::hydra_machine(), 8, 4, {1024, 262144});
  for (const auto& r : results) {
    if (r.guideline == "Gather <= Allgather") {
      EXPECT_LT(r.factor, 10.0);
    }
  }
}

}  // namespace
}  // namespace mpicp::tune
