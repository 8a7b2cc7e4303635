// Property-based tests of the train -> select pipeline: seeded random
// generators drive many shapes of dataset / corruption / learner, and
// each test asserts an invariant that must hold for *every* draw —
// argmin optimality of the selection, exact monotone ingest accounting,
// and serialization round-trip identity.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>

#include "collbench/dataset.hpp"
#include "ml/learner.hpp"
#include "support/faultinject.hpp"
#include "support/parallel.hpp"
#include "support/rng.hpp"
#include "tune/registry.hpp"
#include "tune/ruletable.hpp"
#include "tune/selector.hpp"

#include "rule_voices.hpp"

namespace mpicp {
namespace {

namespace fi = support::faultinject;

/// Random plausible benchmark dataset: 2-5 algorithms with distinct
/// random cost models over a random node/ppn/msize grid, plus noise.
/// Every draw is fully determined by the seed.
bench::Dataset random_dataset(std::uint64_t seed) {
  support::Xoshiro256 rng(seed);
  bench::Dataset ds("prop", sim::MpiLib::kOpenMPI,
                    sim::Collective::kBcast, "Hydra");
  const int num_uids = 2 + static_cast<int>(rng.uniform_int(4));
  const int num_nodes = 3 + static_cast<int>(rng.uniform_int(3));
  std::vector<int> nodes;
  for (int i = 0; i < num_nodes; ++i) nodes.push_back(2 << i);
  const std::vector<int> ppns = {1, 1 + static_cast<int>(rng.uniform_int(8))};
  const std::vector<std::uint64_t> msizes = {
      std::uint64_t{1} << rng.uniform_int(8),
      std::uint64_t{1} << (8 + rng.uniform_int(8)),
      std::uint64_t{1} << (16 + rng.uniform_int(6))};
  for (int uid = 1; uid <= num_uids; ++uid) {
    // Random mix of latency, per-process and bandwidth terms so
    // different uids win in different regions.
    const double a = rng.uniform(1.0, 50.0);
    const double b = rng.uniform(0.0, 5.0);
    const double c = rng.uniform(1e-4, 1e-2);
    for (const int n : nodes) {
      for (const int ppn : ppns) {
        for (const std::uint64_t m : msizes) {
          const double p = static_cast<double>(n) * ppn;
          const double t = a * std::log2(p + 1) + b * p +
                           c * static_cast<double>(m) + 1.0;
          for (int rep = 0; rep < 3; ++rep) {
            ds.add({uid, n, ppn, m, rng.lognormal_median(t, 0.08)});
          }
        }
      }
    }
  }
  return ds;
}

std::string learner_for_seed(std::uint64_t seed) {
  constexpr const char* kChain[] = {"gam", "knn", "linear", "rf",
                                    "xgboost"};
  return kChain[seed % std::size(kChain)];
}

// ---- argmin invariance ----------------------------------------------------

class ArgminInvariance : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ArgminInvariance, SelectedUidMinimizesUsablePredictions) {
  const std::uint64_t seed = GetParam();
  const bench::Dataset ds = random_dataset(seed);
  tune::Selector selector(
      tune::SelectorOptions{.learner = learner_for_seed(seed)});
  ASSERT_GT(selector.fit(ds, ds.node_counts()).uids_total(), 0u);

  support::Xoshiro256 rng(seed ^ 0xfeedbeef);
  for (int trial = 0; trial < 20; ++trial) {
    // Instances beyond the training grid too — the invariant is about
    // the argmin, not about interpolation quality.
    const bench::Instance inst{
        1 + static_cast<int>(rng.uniform_int(64)),
        1 + static_cast<int>(rng.uniform_int(16)),
        std::uint64_t{1} << rng.uniform_int(22)};
    const auto predictions = selector.predict_all(inst);
    const int chosen = selector.select_uid_or_default(
        inst, sim::MpiLib::kOpenMPI, sim::Collective::kBcast);

    const auto chosen_it = std::find_if(
        predictions.begin(), predictions.end(),
        [&](const auto& p) { return p.uid == chosen; });
    if (chosen_it == predictions.end() || !chosen_it->usable) {
      // Only legal when *no* prediction was usable (library default).
      for (const auto& p : predictions) EXPECT_FALSE(p.usable);
      continue;
    }
    for (const auto& p : predictions) {
      if (!p.usable) continue;
      // No usable prediction beats the selection, and ties must have
      // resolved to the lowest uid.
      EXPECT_LE(chosen_it->time_us, p.time_us)
          << "seed " << seed << " trial " << trial << " uid " << p.uid;
      if (p.time_us == chosen_it->time_us) {
        EXPECT_LE(chosen, p.uid);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ArgminInvariance,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

// ---- monotone ingest accounting -------------------------------------------

struct AccountingCase {
  double fault_rate;
  std::uint64_t seed;
};

class MonotoneAccounting
    : public ::testing::TestWithParam<AccountingCase> {};

TEST_P(MonotoneAccounting, RowsSeenEqualsIngestedPlusQuarantined) {
  const auto [fault_rate, seed] = GetParam();
  const bench::Dataset ds = random_dataset(seed);
  const auto path = std::filesystem::temp_directory_path() /
                    ("mpicp_props_accounting_" + std::to_string(seed) +
                     ".csv");
  ds.save_csv(path);
  std::string text;
  {
    std::ifstream in(path);
    std::ostringstream os;
    os << in.rdbuf();
    text = os.str();
  }
  fi::CsvFaultLog log;
  const std::string corrupted = fi::corrupt_csv(
      text, {.fault_rate = fault_rate, .value_column = 4, .seed = seed},
      &log);
  {
    std::ofstream out(path);
    out << corrupted;
  }
  bench::IngestReport report;
  const bench::Dataset loaded = bench::Dataset::load_csv_tolerant(
      path, "prop", sim::MpiLib::kOpenMPI, sim::Collective::kBcast,
      "Hydra", &report);
  std::filesystem::remove(path);

  // The accounting identity holds at any corruption rate: every data
  // line is either ingested or quarantined, nothing is lost or counted
  // twice, and the per-reason counts sum to the quarantine total.
  EXPECT_EQ(report.rows_seen,
            report.rows_ingested + report.rows_quarantined);
  EXPECT_EQ(report.rows_seen, log.rows_total - log.rows_dropped);
  EXPECT_EQ(loaded.num_records(), report.rows_ingested);
  std::size_t by_reason = 0;
  for (const auto& [reason, count] : report.reasons) by_reason += count;
  EXPECT_EQ(by_reason, report.rows_quarantined);
}

INSTANTIATE_TEST_SUITE_P(
    RatesAndSeeds, MonotoneAccounting,
    ::testing::Values(AccountingCase{0.0, 11}, AccountingCase{0.05, 12},
                      AccountingCase{0.25, 13}, AccountingCase{0.6, 14},
                      AccountingCase{1.0, 15}, AccountingCase{0.25, 16},
                      AccountingCase{0.6, 17}));

// ---- serialization round-trip ---------------------------------------------

class RoundTrip : public ::testing::TestWithParam<const char*> {};

TEST_P(RoundTrip, LearnerPredictionsIdenticalAfterSaveLoad) {
  support::Xoshiro256 rng(0x5eed ^ std::hash<std::string>{}(GetParam()));
  ml::Matrix x(150, 4);
  std::vector<double> y(x.rows());
  for (std::size_t i = 0; i < x.rows(); ++i) {
    x(i, 0) = rng.uniform(0.0, 22.0);
    x(i, 1) = rng.uniform(1.0, 64.0);
    x(i, 2) = rng.uniform(1.0, 16.0);
    x(i, 3) = x(i, 1) * x(i, 2);
    y[i] = std::exp(0.08 * x(i, 0)) + 0.4 * x(i, 1) + 0.1 * x(i, 3) + 1.0;
  }
  auto model = ml::make_regressor(GetParam());
  model->fit(x, y);

  std::stringstream stream;
  ml::save_regressor(stream, *model);
  const auto restored = ml::load_regressor(stream);
  ASSERT_EQ(restored->name(), model->name());

  for (int trial = 0; trial < 50; ++trial) {
    const std::vector<double> probe = {
        rng.uniform(0.0, 25.0), rng.uniform(1.0, 80.0),
        rng.uniform(1.0, 20.0), rng.uniform(1.0, 1600.0)};
    // Bit-identical, not approximately equal: the text format persists
    // doubles at max_digits10.
    EXPECT_DOUBLE_EQ(restored->predict_one(probe),
                     model->predict_one(probe))
        << GetParam() << " trial " << trial;
  }
}

INSTANTIATE_TEST_SUITE_P(AllLearners, RoundTrip,
                         ::testing::ValuesIn(ml::kLearnerNames));

class BankRoundTrip : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(BankRoundTrip, SelectorBankSelectsIdenticallyAfterSaveLoad) {
  const std::uint64_t seed = GetParam();
  const bench::Dataset ds = random_dataset(seed);
  tune::Selector selector(
      tune::SelectorOptions{.learner = learner_for_seed(seed)});
  ASSERT_GT(selector.fit(ds, ds.node_counts()).uids_total(), 0u);

  const auto path = std::filesystem::temp_directory_path() /
                    ("mpicp_props_bank_" + std::to_string(seed) +
                     ".models");
  selector.save(path);
  const tune::Selector restored = tune::Selector::load(path);
  std::filesystem::remove(path);

  ASSERT_EQ(restored.uids(), selector.uids());
  support::Xoshiro256 rng(seed ^ 0xabcdef);
  for (int trial = 0; trial < 10; ++trial) {
    const bench::Instance inst{
        1 + static_cast<int>(rng.uniform_int(48)),
        1 + static_cast<int>(rng.uniform_int(12)),
        std::uint64_t{1} << rng.uniform_int(20)};
    // The reloaded bank against the original models' interpreted
    // reference.
    const auto reference = selector.predict_all(inst);
    for (const auto& p : reference) {
      EXPECT_DOUBLE_EQ(restored.predicted_time_us(p.uid, inst), p.time_us);
    }
    std::size_t excluded = 0;
    EXPECT_EQ(restored.select_uid(inst),
              tune::argmin_usable(reference, excluded));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BankRoundTrip,
                         ::testing::Values(21, 22, 23, 24));

// ---- registry linearizability ---------------------------------------------

class RegistryLinearizability
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RegistryLinearizability,
       EveryAnswerEqualsTheSelectionOfSomePublishedVersion) {
  const std::uint64_t seed = GetParam();
  // A chain of bank versions compiled from different random datasets,
  // published at seed-chosen points of a concurrent lookup drain. The
  // invariant: no matter how lookups and publishes interleave, every
  // returned selection equals the selection of *some* published version
  // — an answer outside that set would mean a torn read.
  constexpr int kVersions = 3;
  std::vector<std::shared_ptr<const tune::CompiledBank>> versions;
  for (int v = 0; v < kVersions; ++v) {
    const bench::Dataset ds = random_dataset(seed * 17 + v);
    tune::Selector selector(
        tune::SelectorOptions{.learner = learner_for_seed(seed + v)});
    ASSERT_GT(selector.fit(ds, ds.node_counts()).uids_total(), 0u);
    versions.push_back(
        std::make_shared<const tune::CompiledBank>(selector.compile()));
  }

  support::Xoshiro256 rng(seed ^ 0x12e6157a);
  std::vector<bench::Instance> instances;
  instances.reserve(300);
  for (int i = 0; i < 300; ++i) {
    instances.push_back({1 + static_cast<int>(rng.uniform_int(64)),
                         1 + static_cast<int>(rng.uniform_int(16)),
                         std::uint64_t{1} << rng.uniform_int(22)});
  }
  std::vector<std::vector<int>> allowed(instances.size());
  for (std::size_t i = 0; i < instances.size(); ++i) {
    for (const auto& bank : versions) {
      allowed[i].push_back(bank->select_uid(instances[i]));
    }
  }

  const tune::BankKey key{"Hydra", sim::Collective::kBcast};
  const std::size_t swap_at_1 = 1 + rng.uniform_int(instances.size() - 2);
  const std::size_t swap_at_2 = 1 + rng.uniform_int(instances.size() - 2);
  tune::BankRegistry registry;
  registry.publish(key, versions[0]);

  support::ScopedThreads scoped(4);
  std::vector<int> picked(instances.size(), -1);
  support::parallel_for(instances.size(), 8, [&](std::size_t i) {
    if (i == swap_at_1) registry.publish(key, versions[1]);
    if (i == swap_at_2) registry.publish(key, versions[2]);
    picked[i] = registry.select_uid(key, instances[i]);
  });

  for (std::size_t i = 0; i < instances.size(); ++i) {
    EXPECT_NE(std::find(allowed[i].begin(), allowed[i].end(), picked[i]),
              allowed[i].end())
        << "seed " << seed << " instance " << i << ": uid " << picked[i]
        << " matches no published version's selection";
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RegistryLinearizability,
                         ::testing::Values(31, 32, 33, 34, 35));

// ---- decision-rule distillation invariants --------------------------------

/// Random labeled set over a lattice with jittered message sizes (off
/// the powers of two, so split thresholds fall between integers in
/// exp2 space); duplicate instances (with possibly conflicting labels)
/// allowed when `distinct` is false.
std::vector<tune::LabeledInstance> random_labeled(std::uint64_t seed,
                                                  bool distinct) {
  support::Xoshiro256 rng(seed);
  std::vector<tune::LabeledInstance> points;
  for (int n = 2; n <= 32; n *= 2) {
    for (const int ppn : {1, 4, 8}) {
      for (int shift = 4; shift <= 20; shift += 4) {
        if (rng.uniform_int(3) == 0) continue;  // random subset
        const std::uint64_t base = std::uint64_t{1} << shift;
        const bench::Instance inst{n, ppn, base + rng.uniform_int(base)};
        const int uid = 1 + static_cast<int>(rng.uniform_int(5));
        points.push_back({inst, uid});
        if (!distinct && rng.uniform_int(4) == 0) {
          // A duplicate instance with an independently drawn label —
          // the conflicting-label case agreement must account exactly.
          points.push_back(
              {inst, 1 + static_cast<int>(rng.uniform_int(5))});
        }
      }
    }
  }
  if (points.empty()) points.push_back({{2, 1, 16}, 1});
  return points;
}

class RuleInvariants : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RuleInvariants, AgreementEqualsRecountAndLeavesBounded) {
  const std::uint64_t seed = GetParam();
  const auto points = random_labeled(seed, /*distinct=*/false);
  // Every labeled point plus off-grid probes, non-power-of-two message
  // sizes included (the boundary cases of the integer bounds).
  std::vector<bench::Instance> probes;
  for (const auto& p : points) probes.push_back(p.inst);
  support::Xoshiro256 rng(seed + 1000);
  for (int i = 0; i < 64; ++i) {
    const std::uint64_t base = std::uint64_t{1} << rng.uniform_int(24);
    probes.push_back({1 + static_cast<int>(rng.uniform_int(48)),
                      1 + static_cast<int>(rng.uniform_int(12)),
                      base + rng.uniform_int(base)});
  }
  bool c_ran = true;
  for (const int depth : {1, 3, 8, 32}) {
    for (const int threads : {1, 4}) {
      support::ScopedThreads scoped(threads);
      const tune::RuleTable table =
          tune::RuleTable::fit(points, {.max_depth = depth});
      // agreement() is exactly the empirical recount, no more, no less.
      std::size_t hits = 0;
      for (const auto& p : points) {
        hits += rule_voices::reference_uid(table, p.inst) == p.uid ? 1 : 0;
      }
      EXPECT_DOUBLE_EQ(table.agreement(),
                       static_cast<double>(hits) /
                           static_cast<double>(points.size()))
          << "seed " << seed << " depth " << depth;
      // A leaf never represents zero points.
      EXPECT_LE(static_cast<std::size_t>(table.num_leaves()), points.size())
          << "seed " << seed << " depth " << depth;
      // Reference walk, table, loaded table and executed C are one
      // classifier.
      const std::string tag = "prop_" + std::to_string(seed) + "_" +
                              std::to_string(depth) + "_" +
                              std::to_string(threads);
      bool ran = false;
      ASSERT_TRUE(rule_voices::four_voices_agree(table, probes, tag, ran))
          << "seed " << seed << " depth " << depth << " @" << threads;
      c_ran = c_ran && ran;
    }
  }
  if (!c_ran) GTEST_SKIP() << "no working C compiler on PATH";
}

TEST_P(RuleInvariants, UncappedTreeOnDistinctPointsIsExact) {
  const std::uint64_t seed = GetParam();
  const auto points = random_labeled(seed, /*distinct=*/true);
  const tune::RuleTable table = tune::RuleTable::fit(
      points, {.max_depth = std::numeric_limits<int>::max()});
  // Distinct points are always separable, and tie-splits guarantee the
  // greedy fit keeps separating until every leaf is pure.
  EXPECT_DOUBLE_EQ(table.agreement(), 1.0) << "seed " << seed;
}

INSTANTIATE_TEST_SUITE_P(Seeds, RuleInvariants,
                         ::testing::Values(41, 42, 43, 44, 45, 46));

}  // namespace
}  // namespace mpicp
