// Equivalence and serving tests for the compiled model bank
// (tune/compiled_bank.hpp), the one selection engine: the lowered SoA
// form must reproduce the interpreted reference (Selector::predict_all,
// each model's own predict_one) bit for bit — for every learner, at
// every thread count, with unusable predictions from real models —
// while adding grid selection. Selector::select_uid forwards to the
// bank, so no check here compares against it. The bank is never stored:
// a server takes it from Selector::load().compile().
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <limits>
#include <memory>
#include <numeric>
#include <optional>
#include <span>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "collbench/dataset.hpp"
#include "ml/flatten.hpp"
#include "ml/forest.hpp"
#include "ml/gam.hpp"
#include "ml/gbt.hpp"
#include "ml/knn.hpp"
#include "ml/learner.hpp"
#include "simmpi/coll/decision.hpp"
#include "support/metrics.hpp"
#include "support/parallel.hpp"
#include "support/rng.hpp"
#include "tune/compiled_bank.hpp"
#include "tune/selector.hpp"

#include "hand_models.hpp"

namespace mpicp {
namespace {

using hand_models::constant_gbt;
using hand_models::constant_linear;
using hand_models::cross;
using hand_models::hand_gbt;
using hand_models::hand_linear;
using hand_models::HandNode;
using hand_models::kNanBeta;
using hand_models::load_models;
using hand_models::Models;
using hand_models::selector_models;
using hand_models::serve;
using hand_models::ServedBank;
using hand_models::stump;
using hand_models::write_selector;

/// Seeded synthetic dataset: 3-6 algorithms with distinct random cost
/// models over a random grid (same recipe as the property suite; every
/// draw is fully determined by the seed).
bench::Dataset random_dataset(std::uint64_t seed) {
  support::Xoshiro256 rng(seed);
  bench::Dataset ds("compiled", sim::MpiLib::kOpenMPI,
                    sim::Collective::kBcast, "Hydra");
  const int num_uids = 3 + static_cast<int>(rng.uniform_int(4));
  const std::vector<int> nodes = {2, 4, 8, 16};
  const std::vector<int> ppns = {1, 1 + static_cast<int>(rng.uniform_int(8))};
  const std::vector<std::uint64_t> msizes = {
      std::uint64_t{1} << rng.uniform_int(8),
      std::uint64_t{1} << (8 + rng.uniform_int(8)),
      std::uint64_t{1} << (16 + rng.uniform_int(6))};
  for (int uid = 1; uid <= num_uids; ++uid) {
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

std::vector<bench::Instance> random_instances(std::uint64_t seed,
                                              int count) {
  support::Xoshiro256 rng(seed);
  std::vector<bench::Instance> out;
  out.reserve(static_cast<std::size_t>(count));
  for (int i = 0; i < count; ++i) {
    out.push_back({1 + static_cast<int>(rng.uniform_int(64)),
                   1 + static_cast<int>(rng.uniform_int(16)),
                   std::uint64_t{1} << rng.uniform_int(22)});
  }
  return out;
}

constexpr const char* kAllLearners[] = {"xgboost", "rf",     "knn",
                                        "gam",     "linear", "median"};

/// Lowers `models`, in order, into one bank.
template <typename T>
ml::FlatBank lower_all(const std::vector<std::unique_ptr<T>>& models) {
  std::vector<const ml::Regressor*> regressors;
  for (const auto& model : models) regressors.push_back(model.get());
  return ml::FlatBank(regressors);
}

/// The compiled bank's prediction of every modeled uid on one instance,
/// ascending uid order, one predicted_time_us call per uid, with the
/// interpreted path's usability screen.
std::vector<tune::Selector::Prediction> bank_predictions(
    const tune::CompiledBank& bank, const bench::Instance& inst) {
  std::vector<tune::Selector::Prediction> out;
  for (const int uid : bank.uids()) {
    const std::optional<double> t = bank.predicted_time_us(uid, inst);
    EXPECT_TRUE(t.has_value()) << "uid " << uid;
    const double v = t.value_or(std::numeric_limits<double>::quiet_NaN());
    out.push_back({uid, v, std::isfinite(v) && v >= 0.0});
  }
  return out;
}

/// Exact (bit-level) equality of interpreted vs compiled predictions on
/// one instance. EXPECT_EQ on doubles is deliberate: the compiled bank
/// promises the same arithmetic, not merely close arithmetic.
void expect_identical(const tune::Selector& selector,
                      const tune::CompiledBank& bank,
                      const bench::Instance& inst) {
  const auto interpreted = selector.predict_all(inst);
  const auto compiled = bank_predictions(bank, inst);
  ASSERT_EQ(interpreted.size(), compiled.size());
  for (std::size_t i = 0; i < interpreted.size(); ++i) {
    EXPECT_EQ(interpreted[i].uid, compiled[i].uid);
    EXPECT_EQ(interpreted[i].usable, compiled[i].usable);
    EXPECT_EQ(interpreted[i].time_us, compiled[i].time_us)
        << "uid " << interpreted[i].uid << " at m=" << inst.msize
        << " n=" << inst.nodes << " ppn=" << inst.ppn;
  }
}

/// The interpreted reference pick: the argmin of Selector::predict_all,
/// or -1 when no prediction is usable.
int interpreted_pick(const tune::Selector& selector,
                     const bench::Instance& inst) {
  std::size_t excluded = 0;
  return tune::argmin_usable(selector.predict_all(inst), excluded);
}

/// interpreted_pick, falling back to the library default decision when
/// no prediction is usable (the select_uid_or_default contract).
int interpreted_or_default(const tune::Selector& selector,
                           const bench::Instance& inst) {
  const int pick = interpreted_pick(selector, inst);
  return pick > 0 ? pick
                  : sim::library_default_uid(
                        sim::MpiLib::kOpenMPI, sim::Collective::kBcast,
                        inst.nodes * inst.ppn, inst.msize);
}

/// Running total of compiled.select.argmin_excluded: the unusable
/// predictions the bank argmin has screened out in this process.
std::uint64_t argmin_excluded() {
  return support::metrics::counter("compiled.select.argmin_excluded")
      .value();
}

// ---- bit-identity across learners, seeds and thread counts ---------------

class CompiledEquivalence
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CompiledEquivalence, EveryLearnerBitIdenticalAtEveryThreadCount) {
  const std::uint64_t seed = GetParam();
  const bench::Dataset ds = random_dataset(seed);
  const auto instances = random_instances(seed ^ 0xabcdef, 24);
  for (const char* learner : kAllLearners) {
    tune::Selector selector(tune::SelectorOptions{.learner = learner});
    ASSERT_GT(selector.fit(ds, ds.node_counts()).uids_total(), 0u)
        << learner;
    const tune::CompiledBank bank = selector.compile();
    ASSERT_EQ(bank.uids(), selector.uids()) << learner;
    for (const int threads : {1, 4}) {
      support::ScopedThreads scoped(threads);
      for (const bench::Instance& inst : instances) {
        expect_identical(selector, bank, inst);
        EXPECT_EQ(bank.select_uid(inst), interpreted_pick(selector, inst))
            << learner << " @" << threads << " threads";
      }
      // The grid path agrees with per-instance selection.
      const std::vector<int> picked = bank.select_grid(instances);
      ASSERT_EQ(picked.size(), instances.size());
      for (std::size_t i = 0; i < instances.size(); ++i) {
        EXPECT_EQ(picked[i], interpreted_pick(selector, instances[i]))
            << learner << " grid[" << i << "] @" << threads;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CompiledEquivalence,
                         ::testing::Values(11u, 23u, 47u));

// ---- unusable predictions from real models ------------------------------

TEST(CompiledBank, UnusablePredictionsMatchInterpretedPath) {
  const bench::Dataset ds = random_dataset(5);
  tune::Selector fitted(tune::SelectorOptions{.learner = "knn"});
  ASSERT_GT(fitted.fit(ds, ds.node_counts()).uids_total(), 2u);
  auto [uids, models] = selector_models(fitted, "knn_unusable");
  const bench::Instance inst{8, 4, 4096};

  // A negative time for the lowest uid: both paths exclude it
  // identically.
  models.front() = constant_linear(-1.0);
  {
    const ServedBank served = serve("knn_negative", "knn", uids, models);
    expect_identical(served.selector, served.bank, inst);
    EXPECT_FALSE(bank_predictions(served.bank, inst).front().usable);
    const std::uint64_t before = argmin_excluded();
    EXPECT_EQ(served.bank.select_uid(inst),
              interpreted_pick(served.selector, inst));
    EXPECT_EQ(argmin_excluded() - before, 1u);
  }
  // NaN for every uid: both paths degrade to the library default.
  for (auto& model : models) model = hand_linear(kNanBeta);
  const ServedBank served = serve("knn_all_nan", "knn", uids, models);
  EXPECT_TRUE(
      std::isnan(bank_predictions(served.bank, inst).back().time_us));
  EXPECT_EQ(served.bank.select_uid_or_default(inst, sim::MpiLib::kOpenMPI,
                                              sim::Collective::kBcast),
            interpreted_or_default(served.selector, inst));
  EXPECT_EQ(served.bank.select_uid_or_invalid(inst), -1);
}

// ---- grid selection vs the interpreted reference --------------------------

TEST(CompiledBankLayouts, GridAndReloadedSelectorMatchInterpretedArgmin) {
  const bench::Dataset ds = random_dataset(19);
  std::vector<bench::Instance> grid = ds.instances();
  const std::vector<bench::Instance> off = random_instances(57, 48);
  grid.insert(grid.end(), off.begin(), off.end());

  for (const char* learner : kAllLearners) {
    tune::Selector selector(tune::SelectorOptions{.learner = learner});
    ASSERT_GT(selector.fit(ds, ds.node_counts()).uids_total(), 0u)
        << learner;
    const tune::CompiledBank bank = selector.compile();

    // The one persisted serving artifact is the selector file; a server
    // compiles the bank from it, rebuilding the rank tables and grids.
    const std::filesystem::path path =
        std::filesystem::temp_directory_path() /
        (std::string("mpicp_cb_selector_") + learner + ".txt");
    selector.save(path);
    const tune::CompiledBank loaded = tune::Selector::load(path).compile();
    std::filesystem::remove(path);
    ASSERT_EQ(loaded.uids(), bank.uids()) << learner;
    for (const bench::Instance& inst : grid) {
      const auto before = bank_predictions(bank, inst);
      const auto after = bank_predictions(loaded, inst);
      ASSERT_EQ(before.size(), after.size());
      for (std::size_t i = 0; i < before.size(); ++i) {
        EXPECT_EQ(std::bit_cast<std::uint64_t>(before[i].time_us),
                  std::bit_cast<std::uint64_t>(after[i].time_us))
            << learner << " uid " << before[i].uid;
        EXPECT_EQ(before[i].usable, after[i].usable);
      }
    }

    std::vector<int> grid_picks(grid.size(), 0);
    for (const int threads : {1, 4}) {
      support::ScopedThreads scoped(threads);
      std::vector<int> interpreted(grid.size(), 0);
      for (std::size_t i = 0; i < grid.size(); ++i) {
        interpreted[i] = interpreted_pick(selector, grid[i]);
      }
      bank.select_grid_into(grid, grid_picks);
      for (std::size_t i = 0; i < grid.size(); ++i) {
        ASSERT_EQ(grid_picks[i], interpreted[i])
            << learner << " grid argmin @" << threads << " threads, m="
            << grid[i].msize << " n=" << grid[i].nodes
            << " ppn=" << grid[i].ppn;
      }
      EXPECT_EQ(loaded.select_grid(grid), interpreted)
          << learner << " reloaded selector @" << threads << " threads";
    }
  }
}

TEST(CompiledBankLayouts, GridExcludesAnAllNegativeModel) {
  const bench::Dataset ds = random_dataset(19);
  const std::vector<bench::Instance> grid = ds.instances();
  for (const std::string learner : {"xgboost", "rf"}) {
    tune::Selector fitted(tune::SelectorOptions{.learner = learner});
    ASSERT_GT(fitted.fit(ds, ds.node_counts()).uids_total(), 2u)
        << learner;
    // The lowest uid's model predicts a negative time everywhere: the
    // grid path, served by the bank argmin table, must exclude it
    // exactly like the interpreted reference does.
    auto [uids, models] = selector_models(fitted, "grid_" + learner);
    models.front() = constant_gbt(-1.0);
    const ServedBank served =
        serve("grid_negative_" + learner, learner, uids, models);
    ASSERT_TRUE(served.bank.flat().has_argmin_table()) << learner;
    std::vector<int> interpreted(grid.size(), 0);
    for (std::size_t i = 0; i < grid.size(); ++i) {
      interpreted[i] = interpreted_pick(served.selector, grid[i]);
    }
    for (const int threads : {1, 4}) {
      support::ScopedThreads scoped(threads);
      const std::uint64_t before = argmin_excluded();
      const std::vector<int> grid_picks = served.bank.select_grid(grid);
      EXPECT_EQ(argmin_excluded() - before, grid.size())
          << learner << " @" << threads;
      EXPECT_EQ(grid_picks, interpreted) << learner << " @" << threads;
      for (const int pick : grid_picks) {
        EXPECT_NE(pick, uids.front()) << learner;
      }
    }
  }
}

// ---- lowering a mixed bank ------------------------------------------------

TEST(FlatBankLowering, MixedKindBankMatchesEveryModel) {
  // Grid-valued features (few distinct values each, so the tree
  // ensembles get rank-cell tables), one target per model so the two
  // GBTs differ.
  support::Xoshiro256 rng(2024);
  const std::size_t rows = 240;
  ml::Matrix x(rows, 3);
  for (std::size_t r = 0; r < rows; ++r) {
    x(r, 0) = static_cast<double>(rng.uniform_int(10));
    x(r, 1) = static_cast<double>(1 + rng.uniform_int(16));
    x(r, 2) = static_cast<double>(std::uint64_t{1} << rng.uniform_int(4));
  }
  const std::vector<const char*> learners = {"xgboost", "knn", "rf", "gam",
                                             "xgboost"};
  std::vector<std::unique_ptr<ml::Regressor>> models;
  for (std::size_t k = 0; k < learners.size(); ++k) {
    std::vector<double> y(rows);
    for (std::size_t r = 0; r < rows; ++r) {
      y[r] = (1.0 + static_cast<double>(k)) * (x(r, 0) + 1.0) +
             x(r, 1) * x(r, 2) / (1.0 + static_cast<double>(k)) +
             rng.uniform(0.0, 0.5);
    }
    models.push_back(ml::make_regressor(learners[k]));
    models.back()->fit(x, y);
  }

  // Each model's rank-cell table or KNN grid is derived on its own,
  // appending to pools that already hold the earlier models'.
  const ml::FlatBank bank = lower_all(models);
  ASSERT_EQ(bank.size(), models.size());
  for (const std::size_t i : {0u, 2u, 4u}) {
    EXPECT_TRUE(bank.has_rank_table(i)) << "model " << i;
  }

  // Queries on the grid (training rows) and off it (fractional and
  // out-of-range values).
  std::vector<double> queries;
  for (std::size_t r = 0; r < 24; ++r) {
    queries.insert(queries.end(), {x(r, 0), x(r, 1), x(r, 2)});
  }
  for (int q = 0; q < 24; ++q) {
    queries.insert(queries.end(), {rng.uniform(-2.0, 12.0),
                                   rng.uniform(0.0, 20.0),
                                   rng.uniform(0.5, 10.0)});
  }
  const std::size_t count = queries.size() / 3;
  ml::FlatScratch scratch;
  for (std::size_t q = 0; q < count; ++q) {
    const std::span<const double> v(queries.data() + 3 * q, 3);
    bank.begin_query(v, scratch);
    for (std::size_t i = 0; i < bank.size(); ++i) {
      EXPECT_EQ(bank.predict_one(i, v, scratch),
                models[i]->predict_one(v))
          << "model " << i << " query " << q;
    }
  }
}

// ---- single-instance rank-cell dispatch ----------------------------------

/// Off-grid instances: byte-granular message sizes, and node / ppn
/// counts well outside random_dataset's training range.
std::vector<bench::Instance> offgrid_instances(std::uint64_t seed,
                                               int count) {
  support::Xoshiro256 rng(seed);
  std::vector<bench::Instance> out;
  out.reserve(static_cast<std::size_t>(count));
  for (int i = 0; i < count; ++i) {
    out.push_back({1 + static_cast<int>(rng.uniform_int(200)),
                   1 + static_cast<int>(rng.uniform_int(64)),
                   1 + rng.uniform_int(std::uint64_t{1} << 23)});
  }
  return out;
}

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

/// predict_one on model `i` (the rank-cell table when the model has
/// one, the plain node-pool walk otherwise) returns the interpreted
/// regressor's bits.
void expect_single_paths_agree(const ml::FlatBank& bank, std::size_t i,
                               const ml::Regressor& model,
                               std::span<const double> x,
                               ml::FlatScratch& scratch,
                               const std::string& where) {
  bank.begin_query(x, scratch);
  EXPECT_EQ(bits(bank.predict_one(i, x, scratch)), bits(model.predict_one(x)))
      << where;
}

/// Sorted distinct split thresholds per feature over all trees.
std::vector<std::vector<double>> split_thresholds(const ml::Regressor& model,
                                                  std::size_t dim) {
  const std::vector<ml::RegressionTree>* trees = nullptr;
  if (const auto* gbt =
          dynamic_cast<const ml::GradientBoostedTrees*>(&model)) {
    trees = &gbt->trees();
  } else if (const auto* rf = dynamic_cast<const ml::RandomForest*>(&model)) {
    trees = &rf->trees();
  }
  std::vector<std::vector<double>> out(dim);
  if (trees == nullptr) return out;
  for (const ml::RegressionTree& tree : *trees) {
    for (const auto& node : tree.nodes()) {
      if (node.feature >= 0) out[node.feature].push_back(node.threshold);
    }
  }
  for (auto& v : out) {
    std::sort(v.begin(), v.end());
    v.erase(std::unique(v.begin(), v.end()), v.end());
  }
  return out;
}

/// Fits xgboost and rf on `x` (one shared target) and lowers both.
struct TreeBankFixture {
  std::vector<std::unique_ptr<ml::Regressor>> models;
  ml::FlatBank bank;

  TreeBankFixture(const ml::Matrix& x, std::span<const double> y) {
    for (const char* learner : {"xgboost", "rf"}) {
      models.push_back(ml::make_regressor(learner));
      models.back()->fit(x, y);
    }
    bank = lower_all(models);
  }
};

/// At every stored threshold, its nextafter neighbours, and with ±inf /
/// NaN in any feature, predict_one agrees with the interpreted
/// regressor bit for bit.
void expect_agreement_at_thresholds_and_non_finite(
    const TreeBankFixture& fx, const ml::Matrix& x,
    std::span<const std::size_t> base_rows) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const std::size_t dim = x.cols();
  ml::FlatScratch scratch;
  for (std::size_t i = 0; i < fx.bank.size(); ++i) {
    const ml::Regressor& model = *fx.models[i];
    const auto thresholds = split_thresholds(model, dim);
    for (const std::size_t r : base_rows) {
      std::vector<double> q(dim);
      for (std::size_t f = 0; f < dim; ++f) q[f] = x(r, f);
      for (std::size_t f = 0; f < dim; ++f) {
        const double keep = q[f];
        for (const double t : thresholds[f]) {
          for (const double v : {std::nextafter(t, -kInf), t,
                                 std::nextafter(t, kInf)}) {
            q[f] = v;
            expect_single_paths_agree(
                fx.bank, i, model, q, scratch,
                model.name() + " row " + std::to_string(r) + " x[" +
                    std::to_string(f) + "]=" + std::to_string(v));
          }
        }
        for (const double v : {kInf, -kInf, std::nan("")}) {
          q[f] = v;
          expect_single_paths_agree(
              fx.bank, i, model, q, scratch,
              model.name() + " row " + std::to_string(r) + " x[" +
                  std::to_string(f) + "]=" + std::to_string(v));
        }
        q[f] = keep;
      }
    }
    for (const double v : {kInf, -kInf, std::nan("")}) {
      const std::vector<double> q(dim, v);
      expect_single_paths_agree(fx.bank, i, model, q, scratch,
                                model.name() + " all " + std::to_string(v));
    }
  }
}

TEST(FlatBankRankTables, SingleInstanceTableMatchesEveryWalkBitForBit) {
  // Grid-valued features, so both ensembles get rank-cell tables.
  support::Xoshiro256 rng(77);
  const std::size_t rows = 320;
  ml::Matrix x(rows, 3);
  std::vector<double> y(rows);
  for (std::size_t r = 0; r < rows; ++r) {
    x(r, 0) = static_cast<double>(rng.uniform_int(12));
    x(r, 1) = static_cast<double>(1 + rng.uniform_int(16));
    x(r, 2) = static_cast<double>(std::uint64_t{1} << rng.uniform_int(4));
    y[r] = 2.0 * x(r, 0) + x(r, 1) * x(r, 2) + rng.uniform(0.0, 0.5) + 1.0;
  }
  const TreeBankFixture fx(x, y);
  for (std::size_t i = 0; i < fx.bank.size(); ++i) {
    ASSERT_TRUE(fx.bank.has_rank_table(i)) << fx.models[i]->name();
  }
  const std::size_t base_rows[] = {0, 1, 2, 3};
  expect_agreement_at_thresholds_and_non_finite(fx, x, base_rows);
}

TEST(FlatBankRankTables, TreeByTreeFillMatchesTheWalkOnMultiFeatureSplits) {
  // Feature 0 all-distinct (quantile edges), features 1 and 2 on small
  // grids that drive the target: every tree ensemble splits on two or
  // more features and still fits under the cell cap, so each cell sums
  // leaves from boxes cut along several axes.
  support::Xoshiro256 rng(123);
  const std::size_t rows = 240;
  ml::Matrix x(rows, 3);
  std::vector<double> y(rows);
  for (std::size_t r = 0; r < rows; ++r) {
    x(r, 0) = static_cast<double>(r) + rng.uniform(0.0, 0.5);
    x(r, 1) = static_cast<double>(1 + rng.uniform_int(8));
    x(r, 2) = static_cast<double>(std::uint64_t{1} << rng.uniform_int(4));
    y[r] = 0.02 * x(r, 0) + 3.0 * x(r, 1) + 5.0 * x(r, 2) +
           rng.uniform(0.0, 0.5) + 1.0;
  }
  const TreeBankFixture fx(x, y);
  for (std::size_t i = 0; i < fx.bank.size(); ++i) {
    ASSERT_TRUE(fx.bank.has_rank_table(i)) << fx.models[i]->name();
    const auto thresholds = split_thresholds(*fx.models[i], x.cols());
    const auto split_features = std::count_if(
        thresholds.begin(), thresholds.end(),
        [](const std::vector<double>& v) { return !v.empty(); });
    ASSERT_GE(split_features, 2) << fx.models[i]->name();
  }
  const std::size_t base_rows[] = {0, 57, 130, 239};
  expect_agreement_at_thresholds_and_non_finite(fx, x, base_rows);
}

TEST(FlatBankRankTables, ModelsOverTheCellCapKeepThePlainWalk) {
  // Continuous features: the threshold-rank grid is far larger than
  // kMaxRankCells, so neither model gets a table and the plain
  // node-pool walk must still reproduce the interpreted regressor.
  support::Xoshiro256 rng(91);
  const std::size_t rows = 600;
  ml::Matrix x(rows, 4);
  std::vector<double> y(rows);
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t f = 0; f < 4; ++f) x(r, f) = rng.uniform(0.0, 100.0);
    y[r] = 1.0 + x(r, 0) + 0.5 * x(r, 1) * x(r, 2) / 100.0 +
           std::sqrt(x(r, 3)) + rng.uniform(0.0, 1.0);
  }
  const TreeBankFixture fx(x, y);
  for (std::size_t i = 0; i < fx.bank.size(); ++i) {
    EXPECT_FALSE(fx.bank.has_rank_table(i)) << fx.models[i]->name();
  }
  const std::size_t base_rows[] = {0, 1};
  expect_agreement_at_thresholds_and_non_finite(fx, x, base_rows);
}

TEST(CompiledBankRankTables, OffGridQueriesMatchInterpreted) {
  const bench::Dataset ds = random_dataset(31);
  const std::vector<bench::Instance> stream = offgrid_instances(101, 96);
  for (const char* learner : {"xgboost", "rf"}) {
    tune::Selector selector(tune::SelectorOptions{.learner = learner});
    ASSERT_GT(selector.fit(ds, ds.node_counts()).uids_total(), 2u)
        << learner;
    const tune::CompiledBank bank = selector.compile();
    const ml::FlatBank& flat = bank.flat();
    for (std::size_t i = 0; i < flat.size(); ++i) {
      ASSERT_TRUE(flat.has_rank_table(i)) << learner << " model " << i;
    }
    ml::FlatScratch scratch;
    for (const bench::Instance& inst : stream) {
      const std::vector<double> x =
          tune::instance_features(inst, bank.features());
      const auto reference = selector.predict_all(inst);
      flat.begin_query(x, scratch);
      for (std::size_t i = 0; i < flat.size(); ++i) {
        const double fast = flat.predict_one(i, x, scratch);
        EXPECT_EQ(bits(fast), bits(reference[i].time_us))
            << learner << " uid " << bank.uids()[i] << " m=" << inst.msize
            << " n=" << inst.nodes << " ppn=" << inst.ppn;
      }
    }
    std::vector<int> expected(stream.size());
    for (std::size_t q = 0; q < stream.size(); ++q) {
      expected[q] = interpreted_pick(selector, stream[q]);
    }
    for (const int threads : {1, 4}) {
      support::ScopedThreads scoped(threads);
      // Per-instance selections on the pool's workers, each with its
      // own thread-local scratch.
      std::vector<int> picked(stream.size(), 0);
      support::parallel_for(stream.size(), 8, [&](std::size_t q) {
        picked[q] = bank.select_uid(stream[q]);
      });
      EXPECT_EQ(picked, expected) << learner << " @" << threads;
      for (std::size_t q = 0; q < stream.size(); ++q) {
        EXPECT_EQ(bank.select_uid(stream[q]), expected[q])
            << learner << " query " << q << " @" << threads;
      }
      EXPECT_EQ(bank.select_grid(stream), expected)
          << learner << " grid @" << threads;
    }
  }
}

TEST(CompiledBankRankTables, NegativeAndZeroModelsServedByTheTable) {
  const bench::Dataset ds = random_dataset(31);
  const std::vector<bench::Instance> stream = offgrid_instances(202, 32);
  for (const std::string learner : {"xgboost", "rf"}) {
    tune::Selector fitted(tune::SelectorOptions{.learner = learner});
    ASSERT_GT(fitted.fit(ds, ds.node_counts()).uids_total(), 2u)
        << learner;
    // The lowest uid's model predicts a negative time everywhere and the
    // highest uid's zero. Every model keeps its rank table, so the bank
    // argmin table serves every query: each must pick the zero model,
    // exactly as the interpreted reference does, and count the negative
    // one excluded.
    auto [uids, models] = selector_models(fitted, "table_" + learner);
    models.front() = constant_gbt(-1.0);
    models.back() = constant_gbt(0.0);
    const ServedBank served =
        serve("table_negative_zero_" + learner, learner, uids, models);
    const tune::CompiledBank& bank = served.bank;
    for (std::size_t i = 0; i < bank.num_models(); ++i) {
      ASSERT_TRUE(bank.flat().has_rank_table(i)) << learner;
    }
    ASSERT_TRUE(bank.flat().has_argmin_table()) << learner;
    for (const bench::Instance& inst : stream) {
      const auto preds = bank_predictions(bank, inst);
      EXPECT_EQ(preds.front().time_us, -1.0) << learner;
      EXPECT_FALSE(preds.front().usable) << learner;
      EXPECT_EQ(preds.back().time_us, 0.0) << learner;
      expect_identical(served.selector, bank, inst);
      EXPECT_EQ(interpreted_pick(served.selector, inst), uids.back())
          << learner;
    }
    const std::vector<int> expected(stream.size(), uids.back());
    for (const int threads : {1, 4}) {
      support::ScopedThreads scoped(threads);
      const std::uint64_t before = argmin_excluded();
      std::vector<int> picked(stream.size(), 0);
      support::parallel_for(stream.size(), 8, [&](std::size_t q) {
        picked[q] = bank.select_uid(stream[q]);
      });
      EXPECT_EQ(picked, expected) << learner << " @" << threads;
      EXPECT_EQ(bank.select_grid(stream), expected)
          << learner << " grid @" << threads;
      EXPECT_EQ(argmin_excluded() - before, 2 * stream.size())
          << learner << " @" << threads;
    }
  }
}

// ---- tree ensembles over the rank-cell cap --------------------------------

/// Byte-granular message sizes and random node / ppn counts: every
/// feature gets dozens of distinct split thresholds, so no tree model
/// fitted on it stays under kMaxRankCells.
bench::Dataset continuous_dataset(std::uint64_t seed) {
  support::Xoshiro256 rng(seed);
  bench::Dataset ds("over-cap", sim::MpiLib::kOpenMPI,
                    sim::Collective::kBcast, "Hydra");
  for (int uid = 1; uid <= 4; ++uid) {
    const double a = rng.uniform(1.0, 50.0);
    const double b = rng.uniform(0.0, 5.0);
    const double c = rng.uniform(1e-4, 1e-2);
    for (int r = 0; r < 300; ++r) {
      const int n = 1 + static_cast<int>(rng.uniform_int(64));
      const int ppn = 1 + static_cast<int>(rng.uniform_int(32));
      const std::uint64_t m = 1 + rng.uniform_int(std::uint64_t{1} << 22);
      const double p = static_cast<double>(n) * ppn;
      const double t = a * std::log2(p + 1) + b * p +
                       c * static_cast<double>(m) + 1.0;
      ds.add({uid, n, ppn, m, rng.lognormal_median(t, 0.08)});
    }
  }
  return ds;
}

TEST(CompiledBankOverTheCellCap, GridAndSingleSelectionsMatchInterpreted) {
  const bench::Dataset ds = continuous_dataset(43);
  std::vector<bench::Instance> queries = offgrid_instances(303, 96);
  const std::vector<bench::Instance> train = ds.instances();
  queries.insert(queries.end(), train.begin(), train.begin() + 64);
  for (const char* learner : {"xgboost", "rf"}) {
    tune::Selector selector(tune::SelectorOptions{.learner = learner});
    ASSERT_EQ(selector.fit(ds, ds.node_counts()).uids_total(), 4u)
        << learner;
    const tune::CompiledBank bank = selector.compile();
    for (std::size_t i = 0; i < bank.num_models(); ++i) {
      ASSERT_FALSE(bank.flat().has_rank_table(i)) << learner << " model " << i;
    }
    for (const int threads : {1, 4}) {
      support::ScopedThreads scoped(threads);
      std::vector<int> interpreted(queries.size(), 0);
      for (std::size_t q = 0; q < queries.size(); ++q) {
        interpreted[q] = interpreted_pick(selector, queries[q]);
      }
      std::vector<int> single(queries.size(), 0);
      support::parallel_for(queries.size(), 8, [&](std::size_t q) {
        single[q] = bank.select_uid(queries[q]);
      });
      EXPECT_EQ(single, interpreted) << learner << " @" << threads;
      EXPECT_EQ(bank.select_grid(queries), interpreted)
          << learner << " grid @" << threads;
    }
  }
}

// ---- KNN factored-grid search --------------------------------------------

/// One KNN model on a Cartesian grid shaped like d6: axis 0 (log2
/// msize) × nodes × ppn, with p = nodes * ppn appended when `with_p`.
/// Each grid point is measured `min_reps`..`max_reps` times; a draw of
/// 0 drops the point and leaves its grid cell empty.
struct KnnGridModel {
  std::string name;
  ml::Matrix x;
  std::vector<double> y;
  std::unique_ptr<ml::KnnRegressor> model;
};

KnnGridModel knn_grid_model(std::string name, std::uint64_t seed,
                            bool with_p, int min_reps, int max_reps,
                            ml::KnnParams params) {
  const double log_msizes[] = {0, 4, 8, 10, 12, 14, 16, 19};
  const double nodes[] = {4, 7, 8, 13, 16, 19, 20, 24, 27, 32, 35, 36};
  const double ppns[] = {1, 4, 8, 10, 16, 17, 20, 24, 28, 32};
  support::Xoshiro256 rng(seed);
  std::vector<std::vector<double>> rows;
  std::vector<double> y;
  for (const double lm : log_msizes) {
    for (const double n : nodes) {
      for (const double ppn : ppns) {
        const auto draws =
            static_cast<std::uint64_t>(max_reps - min_reps + 1);
        const int reps = min_reps + static_cast<int>(rng.uniform_int(draws));
        for (int r = 0; r < reps; ++r) {
          rows.push_back({lm, n, ppn});
          if (with_p) rows.back().push_back(n * ppn);
          y.push_back(rng.uniform(1.0, 1000.0));
        }
      }
    }
  }
  KnnGridModel out{std::move(name), ml::Matrix(rows.size(), rows[0].size()),
                   std::move(y), nullptr};
  for (std::size_t r = 0; r < rows.size(); ++r) {
    for (std::size_t f = 0; f < rows[r].size(); ++f) out.x(r, f) = rows[r][f];
  }
  out.model = std::make_unique<ml::KnnRegressor>(params);
  out.model->fit(out.x, out.y);
  return out;
}

/// Queries for a model trained on `x`: every 5th training point
/// exactly; points with one or every feature at the midpoint between
/// two adjacent grid values (equidistant both ways, an exact tie when
/// the model is unscaled); points far outside the grid; and off-grid
/// points drawn like the serve_offgrid workload.
std::vector<std::vector<double>> knn_queries(const ml::Matrix& x,
                                             std::uint64_t seed) {
  const std::size_t dim = x.cols();
  std::vector<std::vector<double>> axes(dim);
  for (std::size_t f = 0; f < dim; ++f) {
    for (std::size_t r = 0; r < x.rows(); ++r) axes[f].push_back(x(r, f));
    std::sort(axes[f].begin(), axes[f].end());
    axes[f].erase(std::unique(axes[f].begin(), axes[f].end()),
                  axes[f].end());
  }
  support::Xoshiro256 rng(seed);
  const auto midpoint = [&](std::size_t f) {
    if (axes[f].size() < 2) return axes[f][0];
    const std::size_t j = rng.uniform_int(axes[f].size() - 1);
    return (axes[f][j] + axes[f][j + 1]) / 2.0;
  };
  std::vector<std::vector<double>> out;
  for (std::size_t r = 0; r < x.rows(); r += 5) {
    const auto row = x.row(r);
    out.emplace_back(row.begin(), row.end());
  }
  for (int i = 0; i < 300; ++i) {
    const auto row = x.row(rng.uniform_int(x.rows()));
    std::vector<double> one(row.begin(), row.end());
    one[rng.uniform_int(dim)] = midpoint(rng.uniform_int(dim));
    out.push_back(one);
    std::vector<double> all(dim);
    for (std::size_t f = 0; f < dim; ++f) all[f] = midpoint(f);
    out.push_back(all);
  }
  for (const double far : {-1e3, -40.0, 80.0, 1e4, 1e150}) {
    out.push_back(std::vector<double>(dim, far));
    const auto row = x.row(rng.uniform_int(x.rows()));
    std::vector<double> one(row.begin(), row.end());
    one[rng.uniform_int(dim)] = far;
    out.push_back(one);
  }
  for (int i = 0; i < 1500; ++i) {
    const double n = static_cast<double>(2 + rng.uniform_int(63));
    const double ppn = static_cast<double>(1 + rng.uniform_int(48));
    const std::vector<double> draw = {rng.uniform(0.0, 22.0), n, ppn, n * ppn};
    out.emplace_back(draw.begin(),
                     draw.begin() + static_cast<std::ptrdiff_t>(
                                        std::min<std::size_t>(dim, 4)));
  }
  return out;
}

/// Bit-level check of model `i` of `bank` against its interpreted
/// regressor on `queries`, one thread and a 4-thread pool, each worker
/// with its own scratch.
void expect_knn_matches_reference(const ml::FlatBank& bank, std::size_t i,
                                  const ml::Regressor& model,
                                  const std::vector<std::vector<double>>& qs,
                                  const std::string& where) {
  std::vector<std::uint64_t> want(qs.size());
  for (std::size_t q = 0; q < qs.size(); ++q) {
    want[q] = bits(model.predict_one(qs[q]));
  }
  for (const int threads : {1, 4}) {
    support::ScopedThreads scoped(threads);
    std::vector<std::uint64_t> got(qs.size());
    support::parallel_for(qs.size(), 16, [&](std::size_t q) {
      thread_local ml::FlatScratch scratch;
      bank.begin_query(qs[q], scratch);
      got[q] = bits(bank.predict_one(i, qs[q], scratch));
    });
    std::size_t mismatches = 0;
    for (std::size_t q = 0; q < qs.size(); ++q) {
      if (got[q] != want[q]) {
        ++mismatches;
        ADD_FAILURE() << where << " @" << threads << " query " << q << ": "
                      << std::bit_cast<double>(got[q]) << " vs "
                      << std::bit_cast<double>(want[q]);
        if (mismatches > 5) return;
      }
    }
  }
}

TEST(FlatBankKnnGrid, MatchesTheInterpretedReferenceBitForBit) {
  ml::KnnParams scaled;
  ml::KnnParams unscaled;
  unscaled.scale_inputs = false;
  ml::KnnParams wide;
  wide.k = 12;
  std::vector<KnnGridModel> cases;
  cases.push_back(knn_grid_model("d6-like repeats", 1, true, 1, 4, scaled));
  cases.push_back(knn_grid_model("3 features, dropped rows", 2, false, 0, 2,
                                 scaled));
  cases.push_back(knn_grid_model("single-row cells", 3, true, 1, 1, scaled));
  cases.push_back(knn_grid_model("k above a cell", 4, true, 0, 3, wide));
  cases.push_back(
      knn_grid_model("unscaled, exact midpoint ties", 5, false, 1, 3,
                     unscaled));
  cases.push_back(
      knn_grid_model("unscaled 4 features", 6, true, 0, 4, unscaled));
  std::vector<const ml::Regressor*> regressors;
  for (const KnnGridModel& c : cases) regressors.push_back(c.model.get());
  const ml::FlatBank bank(regressors);
  for (std::size_t i = 0; i < cases.size(); ++i) {
    ASSERT_TRUE(bank.has_knn_grid(i)) << cases[i].name;
    expect_knn_matches_reference(bank, i, *cases[i].model,
                                 knn_queries(cases[i].x, 100 + i),
                                 cases[i].name);
  }
}

TEST(FlatBankKnnGrid, SmallAndContinuousModelsMatchTheReference) {
  // Fewer points than k; one and two features; and a continuous
  // training set whose grid exceeds the cell cap, served by a scan.
  support::Xoshiro256 rng(21);
  std::vector<std::pair<std::string, ml::Matrix>> sets;
  ml::Matrix tiny(3, 3);
  for (std::size_t r = 0; r < 3; ++r) {
    for (std::size_t f = 0; f < 3; ++f) tiny(r, f) = rng.uniform_int(4);
  }
  sets.emplace_back("3 points, k = 5", tiny);
  ml::Matrix one(200, 1);
  for (std::size_t r = 0; r < 200; ++r) one(r, 0) = rng.uniform_int(12);
  sets.emplace_back("1 feature", one);
  ml::Matrix two(300, 2);
  for (std::size_t r = 0; r < 300; ++r) {
    two(r, 0) = rng.uniform_int(9);
    two(r, 1) = 1 + rng.uniform_int(20);
  }
  sets.emplace_back("2 features", two);
  ml::Matrix continuous(400, 3);
  for (std::size_t r = 0; r < 400; ++r) {
    for (std::size_t f = 0; f < 3; ++f) {
      continuous(r, f) = rng.uniform(0.0, 40.0);
    }
  }
  sets.emplace_back("continuous", continuous);
  std::vector<std::unique_ptr<ml::KnnRegressor>> models;
  for (const auto& [name, x] : sets) {
    std::vector<double> y(x.rows());
    for (double& v : y) v = rng.uniform(1.0, 100.0);
    models.push_back(std::make_unique<ml::KnnRegressor>());
    models.back()->fit(x, y);
  }
  const ml::FlatBank bank = lower_all(models);
  EXPECT_FALSE(bank.has_knn_grid(sets.size() - 1));
  for (std::size_t i = 0; i < sets.size(); ++i) {
    if (i + 1 < sets.size()) {
      EXPECT_TRUE(bank.has_knn_grid(i)) << sets[i].first;
    }
    expect_knn_matches_reference(bank, i, *models[i],
                                 knn_queries(sets[i].second, 300 + i),
                                 sets[i].first);
  }
}

TEST(FlatBankKnnGrid, RejectsModelsOverTheCaps) {
  ml::Matrix x(8, 5);
  std::vector<double> y(8, 1.0);
  for (std::size_t r = 0; r < 8; ++r) {
    for (std::size_t f = 0; f < 5; ++f) x(r, f) = static_cast<double>(r + f);
  }
  ml::KnnRegressor five_features;
  five_features.fit(x, y);
  const std::vector<const ml::Regressor*> five = {&five_features};
  EXPECT_THROW(ml::FlatBank{five}, InvalidArgument);
  ml::KnnParams params;
  params.k = ml::kMaxKnnK + 1;
  ml::KnnRegressor wide(params);
  ml::Matrix x3(8, 3);
  wide.fit(x3, y);
  const std::vector<const ml::Regressor*> wide_k = {&wide};
  EXPECT_THROW(ml::FlatBank{wide_k}, InvalidArgument);
}

// ---- the bank argmin table over hand-built tree ensembles ----------------

// Fitted GBT/RF trees split on message size alone, so these banks are
// built by hand: multi-feature splits on all four instance features
// (log2 msize, nodes, ppn, p), with negative and overflowing leaves.

/// Six hand-built models. Model 2 copies model 0 (every tie goes to 0);
/// model 3 overflows to +inf wherever log2 msize < 10; model 5 splits
/// on log2 msize alone. Where log2 msize < 10 and nodes < 3 every model
/// is negative or infinite; elsewhere models 0, 1, 4 and 5 each win
/// somewhere.
Models hand_tree_models() {
  Models m;
  const auto all_negative = stump(1, 3.0, -1e6, 0.0);
  m.push_back(hand_gbt(2.0, {cross(0, 10.0, 1, 8.5, {3.0, -20.0, 7.0, 1.0}),
                              stump(2, 16.5, 2.0, -1.0),
                              stump(3, 64.0, 0.5, 4.0), all_negative}));
  m.push_back(hand_gbt(4.0, {stump(0, 4.5, -2.0, 3.0),
                              cross(1, 20.0, 2, 4.0, {1.0, -4.0, 2.5, -9.0}),
                              stump(3, 300.5, 1.0, -30.0), all_negative}));
  m.push_back(hand_gbt(2.0, {cross(0, 10.0, 1, 8.5, {3.0, -20.0, 7.0, 1.0}),
                              stump(2, 16.5, 2.0, -1.0),
                              stump(3, 64.0, 0.5, 4.0), all_negative}));
  m.push_back(hand_gbt(1e308, {stump(0, 10.0, 1e308, 0.0), all_negative}));
  m.push_back(hand_gbt(6.0, {cross(3, 64.0, 0, 16.5, {-1.0, 0.5, 2.0, -5.5}),
                             stump(2, 4.0, 0.25, 0.0), all_negative}));
  m.push_back(hand_gbt(5.0, {stump(0, 10.0, -8.0, 0.0),
                             stump(0, 16.5, 1.5, -0.75)}));
  return m;
}

/// The per-model argmin of the interpreted models on `x`: the index of
/// the least usable prediction (lowest on ties, -1 when none) and the
/// number of unusable ones.
std::pair<int, std::size_t> reference_argmin(const Models& models,
                                             std::span<const double> x) {
  int best = -1;
  double best_value = 0.0;
  std::size_t excluded = 0;
  for (std::size_t i = 0; i < models.size(); ++i) {
    const double t = models[i]->predict_one(x);
    if (!(std::isfinite(t) && t >= 0.0)) {
      ++excluded;
      continue;
    }
    if (best < 0 || t < best_value) {
      best = static_cast<int>(i);
      best_value = t;
    }
  }
  return {best, excluded};
}

/// FlatBank::argmin on `x` agrees with the reference; returns its pick.
int expect_argmin(const ml::FlatBank& bank, const Models& models,
                  std::span<const double> x, ml::FlatScratch& scratch,
                  const std::string& where) {
  std::size_t excluded = 12345;
  const int got = bank.argmin(x, scratch, excluded);
  const auto [want, want_excluded] = reference_argmin(models, x);
  EXPECT_EQ(got, want) << where;
  EXPECT_EQ(excluded, want_excluded) << where;
  return got;
}

std::string describe(std::span<const double> x) {
  std::ostringstream os;
  os << std::setprecision(17) << "x = (";
  for (std::size_t f = 0; f < x.size(); ++f) os << (f ? ", " : "") << x[f];
  return os.str() + ")";
}

/// Every split threshold of `models`, per feature, sorted and distinct.
std::vector<std::vector<double>> union_thresholds(const Models& models) {
  std::vector<std::vector<double>> out(4);
  for (const auto& model : models) {
    const auto t = split_thresholds(*model, 4);
    for (std::size_t f = 0; f < 4; ++f) {
      out[f].insert(out[f].end(), t[f].begin(), t[f].end());
    }
  }
  for (auto& v : out) {
    std::sort(v.begin(), v.end());
    v.erase(std::unique(v.begin(), v.end()), v.end());
  }
  return out;
}

TEST(FlatBankArgminTable, MatchesThePerModelArgminAtEveryThreshold) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const Models models = hand_tree_models();
  const ml::FlatBank bank = lower_all(models);
  ASSERT_TRUE(bank.has_argmin_table());

  const auto thresholds = union_thresholds(models);
  const std::vector<std::vector<double>> bases = {
      {2.0, 1.0, 1.0, 1.0},      // every model unusable
      {12.0, 9.0, 8.0, 72.0},    // models 0 and 2 tie
      {17.0, 24.0, 17.0, 408.0}, {5.0, 4.0, 2.0, 8.0},
      {10.0, 20.0, 4.0, 64.0}};
  ml::FlatScratch scratch;
  std::vector<int> picks;
  for (const auto& base : bases) {
    std::vector<double> x = base;
    picks.push_back(expect_argmin(bank, models, x, scratch, describe(x)));
    for (std::size_t f = 0; f < 4; ++f) {
      for (const double t : thresholds[f]) {
        for (const double v :
             {std::nextafter(t, -kInf), t, std::nextafter(t, kInf)}) {
          x[f] = v;
          picks.push_back(
              expect_argmin(bank, models, x, scratch, describe(x)));
        }
      }
      for (const double v : {kInf, -kInf, std::nan("")}) {
        x[f] = v;
        picks.push_back(expect_argmin(bank, models, x, scratch, describe(x)));
      }
      x[f] = base[f];
    }
  }
  for (const double v : {kInf, -kInf, std::nan("")}) {
    const std::vector<double> x(4, v);
    picks.push_back(expect_argmin(bank, models, x, scratch, describe(x)));
  }
  // The queries reach the all-unusable cell and every winner; the tied
  // copy and the overflowing model never win.
  std::sort(picks.begin(), picks.end());
  picks.erase(std::unique(picks.begin(), picks.end()), picks.end());
  EXPECT_EQ(picks, (std::vector<int>{-1, 0, 1, 4, 5}));
}

/// Integer instances around the hand-built thresholds: nodes from 1
/// (below every nodes split) to 40, ppn from 1 to 32, msizes on and
/// between powers of two.
std::vector<bench::Instance> hand_instances() {
  std::vector<bench::Instance> out;
  for (const int n : {1, 2, 3, 4, 8, 9, 19, 20, 21, 40}) {
    for (const int ppn : {1, 2, 4, 5, 8, 16, 17, 32}) {
      for (const std::uint64_t m :
           {1ull, 16ull, 23ull, 1000ull, 1024ull, 1025ull, 92682ull,
            92683ull, 4194304ull}) {
        out.push_back({n, ppn, m});
      }
    }
  }
  return out;
}

TEST(CompiledBankArgminTable, SelectorMatchesInterpretedAtOneAndFourThreads) {
  const Models models = hand_tree_models();
  const std::vector<int> uids = {3, 5, 8, 9, 12, 14};
  const auto path = write_selector("hand_trees", "xgboost", uids, models);
  const tune::Selector selector = tune::Selector::load(path);
  std::filesystem::remove(path);
  const tune::CompiledBank bank = selector.compile();
  ASSERT_TRUE(bank.flat().has_argmin_table());

  // The persisted selector compiles to the same table.
  const auto saved =
      std::filesystem::temp_directory_path() / "mpicp_cb_hand_trees_saved.txt";
  selector.save(saved);
  const tune::CompiledBank reloaded = tune::Selector::load(saved).compile();
  std::filesystem::remove(saved);
  ASSERT_TRUE(reloaded.flat().has_argmin_table());

  const std::vector<bench::Instance> queries = hand_instances();
  std::vector<int> expected(queries.size());
  std::size_t expected_excluded = 0;
  for (std::size_t q = 0; q < queries.size(); ++q) {
    expected[q] = interpreted_pick(selector, queries[q]);
    expected_excluded +=
        reference_argmin(models, tune::instance_features(queries[q], {}))
            .second;
  }
  EXPECT_NE(std::find(expected.begin(), expected.end(), -1), expected.end());
  EXPECT_EQ(std::find(expected.begin(), expected.end(), 8), expected.end());
  EXPECT_GT(expected_excluded, 0u);
  for (const int threads : {1, 4}) {
    support::ScopedThreads scoped(threads);
    std::vector<int> picked(queries.size(), 0);
    std::vector<int> picked_reloaded(queries.size(), 0);
    const std::uint64_t before = argmin_excluded();
    support::parallel_for(queries.size(), 8, [&](std::size_t q) {
      picked[q] = bank.select_uid_or_invalid(queries[q]);
      picked_reloaded[q] = reloaded.select_uid_or_invalid(queries[q]);
    });
    // The table's per-cell counts: every unusable model on each query.
    EXPECT_EQ(argmin_excluded() - before, 2 * expected_excluded)
        << threads << " threads";
    EXPECT_EQ(picked, expected) << threads << " threads";
    EXPECT_EQ(picked_reloaded, expected) << threads << " threads, reloaded";
    for (std::size_t q = 0; q < queries.size(); ++q) {
      EXPECT_EQ(bank.select_uid_or_default(queries[q], sim::MpiLib::kOpenMPI,
                                           sim::Collective::kBcast),
                interpreted_or_default(selector, queries[q]))
          << "query " << q << " @" << threads;
    }
  }

  // An all-negative model for uids[0] and a constant-zero one for
  // uids[4]: the bank keeps its table, and the table agrees with the
  // reference.
  Models swapped = hand_tree_models();
  swapped[0] = constant_gbt(-1.0);
  swapped[4] = constant_gbt(0.0);
  const ServedBank served =
      serve("hand_trees_swapped", "xgboost", uids, swapped);
  ASSERT_TRUE(served.bank.flat().has_argmin_table());
  for (const bench::Instance& inst : queries) {
    EXPECT_EQ(served.bank.select_uid_or_invalid(inst),
              interpreted_pick(served.selector, inst));
  }
}

TEST(CompiledBankArgminTable, MixedAndOverBudgetBanksKeepThePerModelLoop) {
  const std::vector<bench::Instance> queries = hand_instances();
  // A tree bank with a KNN fallback model: no table.
  Models mixed = hand_tree_models();
  {
    const bench::Dataset ds = random_dataset(7);
    tune::Selector knn(tune::SelectorOptions{.learner = "knn"});
    ASSERT_GT(knn.fit(ds, ds.node_counts()).uids_total(), 0u);
    const auto path = std::filesystem::temp_directory_path() /
                      "mpicp_cb_knn_source.txt";
    knn.save(path);
    std::ifstream is(path);
    std::string line;
    for (int i = 0; i < 5; ++i) std::getline(is, line);  // header, uid
    mixed.push_back(ml::load_regressor(is));
    is.close();
    std::filesystem::remove(path);
  }
  // Three models of 10 thresholds per feature each (11^4 rank cells,
  // under the per-model cap), pairwise disjoint: the union has 31^4
  // cells, over the table's byte budget.
  Models wide;
  for (int k = 0; k < 3; ++k) {
    std::vector<std::vector<HandNode>> trees;
    for (int f = 0; f < 4; ++f) {
      for (int j = 0; j < 10; ++j) {
        const double t = (f == 0 ? 0.5 : 1.0) * (3 * j + k) + 0.25 * f;
        trees.push_back(stump(f, t, 0.1 * (j + k + 1), 0.07 * (f + 2 * k)));
      }
    }
    wide.push_back(hand_gbt(1.0, trees));
  }
  for (const Models* models : {&mixed, &wide}) {
    const std::string name = models == &mixed ? "mixed" : "over_budget";
    std::vector<int> uids(models->size());
    std::iota(uids.begin(), uids.end(), 1);
    const auto path = write_selector(name, "xgboost", uids, *models);
    const tune::Selector selector = tune::Selector::load(path);
    std::filesystem::remove(path);
    const tune::CompiledBank bank = selector.compile();
    EXPECT_FALSE(bank.flat().has_argmin_table()) << name;
    if (models == &wide) {
      for (std::size_t i = 0; i < bank.num_models(); ++i) {
        EXPECT_TRUE(bank.flat().has_rank_table(i)) << "model " << i;
      }
    }
    ml::FlatScratch scratch;
    std::size_t expected_excluded = 0;
    for (const bench::Instance& inst : queries) {
      EXPECT_EQ(bank.select_uid_or_invalid(inst),
                interpreted_pick(selector, inst))
          << name << " m=" << inst.msize << " n=" << inst.nodes
          << " ppn=" << inst.ppn;
      const std::vector<double> x = tune::instance_features(inst, {});
      expect_argmin(bank.flat(), *models, x, scratch, name + " " + describe(x));
      expected_excluded += reference_argmin(*models, x).second;
    }
    // The per-model loop counts every unusable model it meets.
    if (models == &mixed) {
      EXPECT_GT(expected_excluded, 0u);
    }
    for (const int threads : {1, 4}) {
      support::ScopedThreads scoped(threads);
      const std::uint64_t before = argmin_excluded();
      support::parallel_for(queries.size(), 8, [&](std::size_t q) {
        (void)bank.select_uid_or_invalid(queries[q]);
      });
      EXPECT_EQ(argmin_excluded() - before, expected_excluded)
          << name << " @" << threads;
    }
  }
}

// ---- the fused GAM pass over the committed d2 bank ------------------------

std::filesystem::path d2_path() {
  return std::filesystem::path(MPICP_DATA_DIR) / "d2.gam.models";
}

/// A GAM payload over `gam`'s bases with coefficients `beta`.
std::unique_ptr<ml::Regressor> gam_with_beta(const ml::GamRegressor& gam,
                                             const std::vector<double>& beta) {
  std::ostringstream os;
  os << std::setprecision(17) << "gam\n"
     << gam.params().basis_per_feature << '\n'
     << gam.bases().size() << '\n';
  for (const ml::BSplineBasis& b : gam.bases()) {
    os << b.lo() << '\n' << b.hi() << '\n';
  }
  os << beta.size() << '\n';
  for (const double v : beta) os << v << '\n';
  auto model = ml::make_regressor("gam");
  std::istringstream is(os.str());
  model->load(is);
  return model;
}

/// Off-grid instances drawn like the serve_offgrid stream: nodes in
/// [2, 64], ppn in [1, 48], msize log-uniform over [1 B, 4 MiB].
std::vector<bench::Instance> serving_offgrid(std::uint64_t seed, int count) {
  support::Xoshiro256 rng(seed);
  std::vector<bench::Instance> out;
  out.reserve(static_cast<std::size_t>(count));
  for (int i = 0; i < count; ++i) {
    const int nodes = 2 + static_cast<int>(rng.uniform_int(63));
    const int ppn = 1 + static_cast<int>(rng.uniform_int(48));
    const double m = std::floor(std::exp2(22.0 * rng.uniform(0.0, 1.0)));
    out.push_back({nodes, ppn,
                   static_cast<std::uint64_t>(std::clamp(m, 1.0, 4194304.0))});
  }
  return out;
}

TEST(FlatBankFusedGam, EveryIntegerOfEverySlotTableMatchesThePerModelArgmin) {
  const auto [uids, models] = load_models(d2_path());
  ASSERT_EQ(uids.size(), 13u);
  const ml::FlatBank bank = lower_all(models);
  EXPECT_FALSE(bank.has_argmin_table());
  ASSERT_EQ(bank.num_basis_slots(), 4u);
  for (std::size_t s = 0; s < bank.num_basis_slots(); ++s) {
    EXPECT_TRUE(bank.has_int_rows(s)) << "slot " << s;
  }

  // Every model shares one basis per feature; walk each feature over
  // every integer of its table, one beyond each end and a few
  // fractions, with the other features at several base points.
  const auto& gam = dynamic_cast<const ml::GamRegressor&>(*models[0]);
  const std::vector<std::vector<double>> bases = {
      {0.0, 4.0, 1.0, 4.0}, {10.0, 16.0, 8.0, 128.0},
      {22.0, 36.0, 32.0, 1152.0}, {13.0, 7.0, 17.0, 119.0}};
  ml::FlatScratch scratch;
  std::vector<int> picks;
  for (std::size_t f = 0; f < 4; ++f) {
    const double lo = gam.bases()[f].lo();
    const double hi = gam.bases()[f].hi();
    for (const auto& base : bases) {
      std::vector<double> x = base;
      for (double v = std::ceil(lo) - 1.0; v <= std::floor(hi) + 1.0;
           v += 1.0) {
        x[f] = v;
        picks.push_back(expect_argmin(bank, models, x, scratch, describe(x)));
      }
      for (const double v : {lo + 0.5, std::nextafter(hi, lo), hi - 0.25,
                             std::nextafter(lo, hi)}) {
        x[f] = v;
        picks.push_back(expect_argmin(bank, models, x, scratch, describe(x)));
      }
    }
  }
  std::sort(picks.begin(), picks.end());
  picks.erase(std::unique(picks.begin(), picks.end()), picks.end());
  EXPECT_GE(picks.size(), 3u);
}

TEST(CompiledBankFusedGam, OffGridQueriesMatchTheInterpretedModels) {
  const tune::Selector selector = tune::Selector::load(d2_path());
  const tune::CompiledBank bank = selector.compile();
  const auto [uids, models] = load_models(d2_path());
  ASSERT_EQ(bank.uids(), uids);
  const std::vector<bench::Instance> stream = serving_offgrid(2027, 65536);
  std::vector<int> expected(stream.size());
  for (std::size_t q = 0; q < stream.size(); ++q) {
    const std::vector<double> x =
        tune::instance_features(stream[q], bank.features());
    const int best = reference_argmin(models, x).first;
    expected[q] = best < 0 ? -1 : uids[static_cast<std::size_t>(best)];
  }
  for (const int threads : {1, 4}) {
    support::ScopedThreads scoped(threads);
    EXPECT_EQ(bank.select_grid(stream), expected) << threads << " threads";
  }
  // The single-query path, against the interpreted reference.
  for (std::size_t q = 0; q < stream.size(); q += 512) {
    EXPECT_EQ(bank.select_uid(stream[q]),
              interpreted_pick(selector, stream[q]))
        << "query " << q;
  }
}

TEST(CompiledBankFusedGam, TiesAndClampedScoresGoToTheLowerUid) {
  const auto [uids, models] = load_models(d2_path());
  const std::vector<bench::Instance> stream = serving_offgrid(99, 4096);
  // Every d2 model twice: the copy under a higher uid never wins.
  Models twice;
  std::vector<int> twice_uids;
  for (const int offset : {0, 100}) {
    for (std::size_t i = 0; i < models.size(); ++i) {
      const auto& gam = dynamic_cast<const ml::GamRegressor&>(*models[i]);
      twice.push_back(gam_with_beta(gam, gam.beta()));
      twice_uids.push_back(offset + uids[i]);
    }
  }
  const ServedBank ties = serve("gam_ties", "gam", twice_uids, twice);
  const tune::CompiledBank original = tune::Selector::load(d2_path()).compile();
  for (const bench::Instance& inst : stream) {
    const int pick = ties.bank.select_uid(inst);
    EXPECT_LT(pick, 100);
    EXPECT_EQ(pick, original.select_uid(inst));
    EXPECT_EQ(pick, interpreted_pick(ties.selector, inst));
  }
  // Scores past the clamp: intercepts of +1000 and +100 both clamp to
  // +40 and tie at exp(40), so the lower uid wins (unclamped, exp(1000)
  // would be +inf and excluded); adding -1000 and -100, which tie at
  // exp(-40) below every d2 model, moves the pick to the lower of those.
  const auto& gam0 = dynamic_cast<const ml::GamRegressor&>(*models[0]);
  const auto with_intercept = [&](double intercept) {
    std::vector<double> beta = gam0.beta();
    beta[0] = intercept;
    return gam_with_beta(gam0, beta);
  };
  Models clamped;
  clamped.push_back(with_intercept(1000.0));
  clamped.push_back(with_intercept(100.0));
  const ServedBank high = serve("gam_high", "gam", {1, 2}, clamped);
  for (std::size_t q = 0; q < stream.size(); q += 8) {
    EXPECT_EQ(high.bank.select_uid(stream[q]), 1);
    EXPECT_EQ(interpreted_pick(high.selector, stream[q]), 1);
  }
  clamped.push_back(with_intercept(-1000.0));
  clamped.push_back(with_intercept(-100.0));
  std::vector<int> clamped_uids = {1, 2, 3, 4};
  for (std::size_t i = 0; i < models.size(); ++i) {
    const auto& gam = dynamic_cast<const ml::GamRegressor&>(*models[i]);
    clamped.push_back(gam_with_beta(gam, gam.beta()));
    clamped_uids.push_back(10 + uids[i]);
  }
  const ServedBank both = serve("gam_both", "gam", clamped_uids, clamped);
  for (std::size_t q = 0; q < stream.size(); q += 8) {
    EXPECT_EQ(both.bank.select_uid(stream[q]), 3);
    EXPECT_EQ(interpreted_pick(both.selector, stream[q]), 3);
  }
}

TEST(CompiledBankFusedGam, ZeroNegativeAndKnnModelsMatchInterpreted) {
  const std::vector<bench::Instance> stream = serving_offgrid(4242, 2048);
  auto [uids, models] = load_models(d2_path());
  // Linear models predicting 0 (uid 40) and -2 (uid 41) beside the d2
  // GAMs: the fused GAM screen runs, then the per-model loop picks the
  // zero and excludes the negative one on every query.
  {
    auto [with_linear, linear] = load_models(d2_path());
    with_linear.insert(with_linear.end(), {40, 41});
    linear.push_back(constant_linear(0.0));
    linear.push_back(constant_linear(-2.0));
    const ServedBank served = serve("gam_linear", "gam", with_linear, linear);
    EXPECT_EQ(served.bank.flat().model(13).kind, ml::FlatKind::kLinear);
    for (std::size_t q = 0; q < stream.size(); q += 16) {
      EXPECT_EQ(interpreted_pick(served.selector, stream[q]), 40);
    }
    for (const int threads : {1, 4}) {
      support::ScopedThreads scoped(threads);
      const std::uint64_t before = argmin_excluded();
      EXPECT_EQ(served.bank.select_grid(stream),
                std::vector<int>(stream.size(), 40))
          << threads << " threads";
      EXPECT_EQ(argmin_excluded() - before, stream.size())
          << threads << " threads";
    }
  }
  // A GAM + KNN bank: the GAMs in the fused pass, the KNN model on its
  // own.
  {
    bench::Dataset ds("gam-knn", sim::MpiLib::kOpenMPI,
                      sim::Collective::kAllreduce, "Hydra");
    support::Xoshiro256 rng(5);
    for (const int n : {4, 8, 16, 32}) {
      for (const int ppn : {1, 8, 32}) {
        for (int lm = 0; lm <= 22; lm += 2) {
          const double t = 20.0 + 0.02 * std::exp2(lm) / n + 3.0 * ppn;
          ds.add({50, n, ppn, std::uint64_t{1} << lm,
                  rng.lognormal_median(t, 0.05)});
        }
      }
    }
    tune::Selector knn(tune::SelectorOptions{.learner = "knn"});
    ASSERT_EQ(knn.fit(ds, ds.node_counts()).uids_total(), 1u);
    const auto path =
        std::filesystem::temp_directory_path() / "mpicp_cb_gam_knn_src.txt";
    knn.save(path);
    std::ifstream is(path);
    std::string line;
    for (int i = 0; i < 5; ++i) std::getline(is, line);  // header, uid
    models.push_back(ml::load_regressor(is));
    uids.push_back(50);
    is.close();
    std::filesystem::remove(path);
  }
  const auto path = write_selector("gam_knn", "gam", uids, models);
  const tune::Selector mixed = tune::Selector::load(path);
  std::filesystem::remove(path);
  const tune::CompiledBank bank = mixed.compile();
  ASSERT_EQ(bank.num_models(), 14u);
  for (std::size_t i = 0; i < 13; ++i) {
    EXPECT_EQ(bank.flat().model(i).kind, ml::FlatKind::kGam) << "model " << i;
  }
  EXPECT_EQ(bank.flat().model(13).kind, ml::FlatKind::kKnn);
  std::vector<int> picks;
  for (const bench::Instance& inst : stream) {
    const int pick = bank.select_uid(inst);
    EXPECT_EQ(pick, interpreted_pick(mixed, inst))
        << "m=" << inst.msize << " n=" << inst.nodes << " ppn=" << inst.ppn;
    picks.push_back(pick);
  }
  // The KNN model wins some queries and loses others.
  const auto knn_wins = std::count(picks.begin(), picks.end(), 50);
  EXPECT_GT(knn_wins, 0);
  EXPECT_LT(knn_wins, static_cast<long>(picks.size()));
}

// ---- contracts ------------------------------------------------------------

TEST(CompiledBank, CompilingAnUnfittedSelectorThrows) {
  tune::Selector selector;
  EXPECT_THROW((void)selector.compile(), std::exception);
}

TEST(CompiledBank, LoadingAModelTheLoweringRefusesThrows) {
  // Selector::load lowers the bank, so a well-formed file whose KNN k
  // exceeds kMaxKnnK fails at load, with an mpicp error.
  ml::KnnParams params;
  params.k = ml::kMaxKnnK + 1;
  auto wide = std::make_unique<ml::KnnRegressor>(params);
  ml::Matrix x(8, 4);
  std::vector<double> y(8, 1.0);
  for (std::size_t r = 0; r < 8; ++r) {
    for (std::size_t f = 0; f < 4; ++f) x(r, f) = static_cast<double>(r + f);
  }
  wide->fit(x, y);
  Models models;
  models.push_back(std::move(wide));
  const auto path = write_selector("wide_k", "knn", {1}, models);
  EXPECT_THROW((void)tune::Selector::load(path), Error);
  std::filesystem::remove(path);
}

TEST(CompiledBank, ServingFromAnEmptyBankThrows) {
  const tune::CompiledBank bank;
  EXPECT_THROW((void)bank.select_uid({4, 4, 1024}), std::exception);
  EXPECT_FALSE(bank.predicted_time_us(1, {4, 4, 1024}).has_value());
}

}  // namespace
}  // namespace mpicp
