// Tests for the tuning layer: feature encoding, per-uid selector,
// evaluation accounting, tuning-file round trips, and a synthetic
// end-to-end check that the selector recovers a known best-algorithm
// structure from noisy measurements.
#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "collbench/defaults.hpp"
#include "support/metrics.hpp"
#include "support/parallel.hpp"
#include "support/rng.hpp"
#include "tune/compiled_bank.hpp"
#include "tune/config_writer.hpp"
#include "tune/evaluator.hpp"
#include "tune/selector.hpp"

namespace mpicp::tune {
namespace {

using bench::Dataset;
using bench::Instance;
using bench::Record;

/// Synthetic dataset with three "algorithms" whose (known) runtimes
/// cross over in message size and scale:
///   uid 1: latency-optimal   t = 10 log2(p) + 0.01 m
///   uid 2: bandwidth-optimal t = 2 p + 0.001 m
///   uid 3: never optimal     t = 50 + 0.01 m + p
Dataset make_synthetic(const std::vector<int>& nodes, double noise_sigma,
                       std::uint64_t seed) {
  Dataset ds("synth", sim::MpiLib::kIntelMPI, sim::Collective::kAllreduce,
             "Hydra");
  support::Xoshiro256 rng(seed);
  const std::vector<int> ppns = {1, 2, 4, 8};
  const std::vector<std::uint64_t> msizes = {16,    256,   4096,
                                             65536, 262144, 1048576};
  for (const int n : nodes) {
    for (const int ppn : ppns) {
      const double p = n * ppn;
      for (const std::uint64_t m : msizes) {
        const double md = static_cast<double>(m);
        const double t1 = 10.0 * std::log2(p + 1) + 0.01 * md;
        const double t2 = 2.0 * p + 0.001 * md;
        const double t3 = 50.0 + 0.01 * md + p;
        for (int rep = 0; rep < 3; ++rep) {
          ds.add({1, n, ppn, m, rng.lognormal_median(t1, noise_sigma)});
          ds.add({2, n, ppn, m, rng.lognormal_median(t2, noise_sigma)});
          ds.add({3, n, ppn, m, rng.lognormal_median(t3, noise_sigma)});
        }
      }
    }
  }
  return ds;
}

TEST(Features, EncodeInstance) {
  const FeatureOptions with_p{.include_total_processes = true};
  const FeatureOptions without_p{.include_total_processes = false};
  const auto f1 = instance_features({8, 4, 1024}, with_p);
  ASSERT_EQ(f1.size(), 4u);
  EXPECT_DOUBLE_EQ(f1[0], 10.0);  // log2(1024)
  EXPECT_DOUBLE_EQ(f1[1], 8.0);
  EXPECT_DOUBLE_EQ(f1[2], 4.0);
  EXPECT_DOUBLE_EQ(f1[3], 32.0);
  EXPECT_EQ(instance_features({8, 4, 1024}, without_p).size(), 3u);
  // msize 1 maps to log2 = 0 without blowing up.
  EXPECT_DOUBLE_EQ(instance_features({1, 1, 1}, without_p)[0], 0.0);
}

class SelectorLearners : public ::testing::TestWithParam<const char*> {};

TEST_P(SelectorLearners, RecoversCrossoverStructure) {
  const Dataset train_ds =
      make_synthetic({2, 4, 8, 16, 32}, 0.05, 1);
  Selector selector(SelectorOptions{.learner = GetParam()});
  ASSERT_FALSE(selector.fit(train_ds, {2, 4, 16, 32}).degraded());
  EXPECT_EQ(selector.uids().size(), 3u);

  // On unseen node counts, the selector must pick the latency algorithm
  // for small messages at scale and the bandwidth algorithm for large
  // messages, and essentially never the dominated algorithm 3.
  int wrong = 0;
  int total = 0;
  for (const int n : {3, 6, 12, 24}) {
    for (const int ppn : {1, 2, 4, 8}) {
      const double p = n * ppn;
      for (const std::uint64_t m :
           {std::uint64_t{16}, std::uint64_t{4096},
            std::uint64_t{1048576}}) {
        const double md = static_cast<double>(m);
        const double t1 = 10.0 * std::log2(p + 1) + 0.01 * md;
        const double t2 = 2.0 * p + 0.001 * md;
        const int expect = t1 <= t2 ? 1 : 2;
        const int got = selector.select_uid({n, ppn, m});
        EXPECT_NE(got, 3) << "dominated algorithm selected";
        // Allow misses near the crossover; count them.
        if (got != expect &&
            std::abs(t1 - t2) > 0.25 * std::min(t1, t2)) {
          ++wrong;
        }
        ++total;
      }
    }
  }
  // Tree ensembles predict piecewise-constant surfaces, so they place
  // the crossover less precisely between training node counts than the
  // smooth learners do (the paper sees the same effect: XGBoost loses
  // the most on the small training sets in Table IVb). Smooth learners
  // must be nearly exact; trees get a wider band.
  const std::string learner = GetParam();
  const bool tree_based = learner == "xgboost" || learner == "rf";
  EXPECT_LE(wrong, tree_based ? total / 2 : total / 10) << learner;
}

INSTANTIATE_TEST_SUITE_P(Learners, SelectorLearners,
                         ::testing::Values("xgboost", "knn", "gam", "rf",
                                           "linear"));

TEST(Selector, PredictedTimesArePositive) {
  const Dataset ds = make_synthetic({2, 4, 8}, 0.05, 2);
  Selector selector(SelectorOptions{.learner = "gam"});
  ASSERT_FALSE(selector.fit(ds, {2, 4, 8}).degraded());
  for (const int uid : selector.uids()) {
    EXPECT_GT(selector.predicted_time_us(uid, {3, 2, 512}), 0.0);
  }
  EXPECT_THROW(selector.predicted_time_us(99, {3, 2, 512}), Error);
}

TEST(Selector, ThrowsBeforeFit) {
  Selector selector;
  EXPECT_THROW((void)selector.select_uid({2, 1, 16}), Error);
}

TEST(Evaluator, AccountingIsExact) {
  // Hand-built dataset where we can compute every metric by hand.
  Dataset ds("t", sim::MpiLib::kIntelMPI, sim::Collective::kAllreduce,
             "Hydra");
  // Instance A (n=2): uid1=10, uid2=20. Instance B (n=3): uid1=40, uid2=8.
  ds.add({1, 2, 1, 64, 10.0});
  ds.add({2, 2, 1, 64, 20.0});
  ds.add({1, 3, 1, 64, 40.0});
  ds.add({2, 3, 1, 64, 8.0});

  struct FixedDefault final : bench::DefaultLogic {
    std::string name() const override { return "fixed"; }
    int select_uid(const Instance&) const override { return 1; }
  };
  // A "selector" trained on this toy set with knn k=1 picks the true
  // best at the training points.
  Selector selector(SelectorOptions{.learner = "knn"});
  ASSERT_FALSE(selector.fit(ds, {2, 3}).degraded());

  const Evaluation eval = evaluate(ds, selector, FixedDefault{}, {2, 3});
  ASSERT_EQ(eval.rows.size(), 2u);
  for (const EvalRow& row : eval.rows) {
    EXPECT_EQ(row.default_uid, 1);
    if (row.inst.nodes == 2) {
      EXPECT_EQ(row.best_uid, 1);
      EXPECT_DOUBLE_EQ(row.t_best_us, 10.0);
      EXPECT_DOUBLE_EQ(row.t_default_us, 10.0);
    } else {
      EXPECT_EQ(row.best_uid, 2);
      EXPECT_DOUBLE_EQ(row.t_best_us, 8.0);
      EXPECT_DOUBLE_EQ(row.t_default_us, 40.0);
      EXPECT_DOUBLE_EQ(row.norm_default(), 5.0);
    }
  }
  EXPECT_EQ(eval.summary.num_instances, 2u);
  EXPECT_GE(eval.summary.mean_speedup, 1.0);
  EXPECT_GE(eval.summary.mean_norm_default,
            eval.summary.mean_norm_predicted);
}

TEST(Evaluator, EndToEndBeatsBadDefaultOnSynthetic) {
  const Dataset ds = make_synthetic({2, 4, 8, 16, 32}, 0.05, 3);
  struct AlwaysThree final : bench::DefaultLogic {
    std::string name() const override { return "always-3"; }
    int select_uid(const Instance&) const override { return 3; }
  };
  Selector selector(SelectorOptions{.learner = "xgboost"});
  ASSERT_FALSE(selector.fit(ds, {2, 4, 16, 32}).degraded());
  const Evaluation eval = evaluate(ds, selector, AlwaysThree{}, {8});
  EXPECT_GT(eval.summary.mean_speedup, 1.2);
  EXPECT_LT(eval.summary.mean_norm_predicted, 1.5);
}

// One lowering per fit and per load: evaluate, every Selector selection
// and compile() all serve from the bank the fit (or load) built.
class OneLowering : public ::testing::TestWithParam<int> {};

TEST_P(OneLowering, FitAndLoadEachLowerTheBankOnce) {
  const support::ScopedThreads threads(GetParam());
  namespace metrics = support::metrics;
  const Dataset ds = make_synthetic({2, 4, 8, 16}, 0.05, 5);
  struct FixedDefault final : bench::DefaultLogic {
    std::string name() const override { return "fixed"; }
    int select_uid(const Instance&) const override { return 1; }
  };
  const Instance inst{6, 4, 4096};
  metrics::Registry::instance().reset();
  metrics::Counter& lowerings = metrics::counter("compiled.compile.calls");
  metrics::Counter& requests = metrics::counter("compiled.select.requests");

  Selector selector(SelectorOptions{.learner = "gam"});
  ASSERT_FALSE(selector.fit(ds, {2, 4, 16}).degraded());
  const Evaluation eval = evaluate(ds, selector, FixedDefault{}, {8});
  const int uid = selector.select_uid(inst);
  EXPECT_EQ(selector.select_uid_or_default(inst, sim::MpiLib::kIntelMPI,
                                           sim::Collective::kAllreduce),
            uid);
  EXPECT_GT(selector.predicted_time_us(uid, inst), 0.0);
  const CompiledBank& bank = selector.compile();
  EXPECT_EQ(lowerings.value(), 1u);
  EXPECT_EQ(requests.value(), 2u);
  EXPECT_EQ(metrics::counter("compiled.select.grid_instances").value(),
            eval.rows.size());

  const auto path =
      std::filesystem::temp_directory_path() /
      ("mpicp_one_lowering_" + std::to_string(GetParam()) + ".models");
  selector.save(path);
  metrics::Registry::instance().reset();
  const Selector loaded = Selector::load(path);
  std::filesystem::remove(path);
  EXPECT_EQ(loaded.compile().uids(), bank.uids());
  EXPECT_EQ(loaded.select_uid(inst), uid);
  EXPECT_EQ(lowerings.value(), 1u);
  EXPECT_EQ(requests.value(), 1u);
}

INSTANTIATE_TEST_SUITE_P(ThreadCounts, OneLowering, ::testing::Values(1, 4));

TEST(ConfigWriter, FoldsAndRoundTrips) {
  const Dataset ds = make_synthetic({2, 4, 8, 16, 32}, 0.02, 4);
  Selector selector(SelectorOptions{.learner = "knn"});
  ASSERT_FALSE(selector.fit(ds, {2, 4, 8, 16, 32}).degraded());
  const std::vector<std::uint64_t> ladder = {16,    256,    4096,
                                             65536, 262144, 1048576};
  const TuningConfig config = build_tuning_config(
      selector, sim::MpiLib::kIntelMPI, sim::Collective::kAllreduce, 16, 4,
      ladder);
  ASSERT_FALSE(config.rules.empty());
  // Rules must reproduce the selector's picks at the queried sizes.
  for (const std::uint64_t m : ladder) {
    EXPECT_EQ(config.uid_for(m), selector.select_uid({16, 4, m}))
        << "m=" << m;
  }
  const auto path =
      std::filesystem::temp_directory_path() / "mpicp_tuning_test.conf";
  write_tuning_file(path, config);
  const TuningConfig loaded = read_tuning_file(path);
  EXPECT_EQ(loaded.nodes, 16);
  EXPECT_EQ(loaded.ppn, 4);
  EXPECT_EQ(loaded.coll, sim::Collective::kAllreduce);
  ASSERT_EQ(loaded.rules.size(), config.rules.size());
  for (std::size_t i = 0; i < config.rules.size(); ++i) {
    EXPECT_EQ(loaded.rules[i].uid, config.rules[i].uid);
    EXPECT_EQ(loaded.rules[i].msize_upto, config.rules[i].msize_upto);
  }
  std::filesystem::remove(path);
}

TEST(ConfigWriter, MalformedFilesAreParseErrors) {
  // A tuning file comes from outside the program: every malformed one
  // is a ParseError naming the problem, never an out_of_range, an
  // InvalidArgument or a silently wrapped or truncated value.
  const std::string header =
      "lib OpenMPI\ncollective bcast\nnodes 4\nppn 2\n";
  const std::string rules =
      "rule msize_upto=1024 uid=1  # label\nrule msize_upto=inf uid=2\n";
  struct Case {
    const char* what;
    std::string contents;
  };
  const std::vector<Case> cases = {
      {"bare directive", header + "nodes\n" + rules},
      {"rule without uid", header + "rule msize_upto=64\n"},
      {"rule without msize_upto", header + "rule uid=1\n"},
      {"negative msize_upto", header + "rule msize_upto=-1 uid=1\n"},
      {"nodes outside int", "nodes 4294967297\n" + rules},
      {"ppn outside int", "ppn -2147483649\n" + rules},
      {"uid outside int", header + "rule msize_upto=64 uid=4294967297\n"},
      {"msize_upto repeats",
       header + "rule msize_upto=64 uid=1\nrule msize_upto=64 uid=2\n"},
      {"msize_upto decreases",
       header + "rule msize_upto=inf uid=1\nrule msize_upto=64 uid=2\n"},
  };
  const auto path =
      std::filesystem::temp_directory_path() / "mpicp_tuning_malformed.conf";
  const auto read = [&](const std::string& contents) {
    {
      std::ofstream os(path);
      os << contents;
    }
    return read_tuning_file(path);
  };
  // The well-formed file the cases break loads.
  const TuningConfig ok = read(header + rules);
  EXPECT_EQ(ok.nodes, 4);
  ASSERT_EQ(ok.rules.size(), 2u);
  EXPECT_EQ(ok.uid_for(1024), 1);
  EXPECT_EQ(ok.uid_for(1025), 2);
  for (const Case& c : cases) {
    EXPECT_THROW((void)read(c.contents), ParseError) << c.what;
  }
  std::filesystem::remove(path);
}

}  // namespace
}  // namespace mpicp::tune
