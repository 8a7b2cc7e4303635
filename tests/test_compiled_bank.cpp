// Equivalence and serving tests for the compiled model bank
// (tune/compiled_bank.hpp): the lowered SoA form must reproduce the
// interpreted Selector bit for bit — for every learner, at every thread
// count, under fault injection — while adding grid selection and a
// save/load round trip of its own.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <limits>
#include <memory>
#include <span>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "collbench/dataset.hpp"
#include "ml/flatten.hpp"
#include "ml/forest.hpp"
#include "ml/gbt.hpp"
#include "ml/knn.hpp"
#include "ml/learner.hpp"
#include "support/faultinject.hpp"
#include "support/parallel.hpp"
#include "support/rng.hpp"
#include "tune/compiled_bank.hpp"
#include "tune/selector.hpp"

namespace mpicp {
namespace {

namespace fi = support::faultinject;

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

/// Exact (bit-level) equality of interpreted vs compiled predictions on
/// one instance. EXPECT_EQ on doubles is deliberate: the compiled bank
/// promises the same arithmetic, not merely close arithmetic.
void expect_identical(const tune::Selector& selector,
                      const tune::CompiledBank& bank,
                      const bench::Instance& inst) {
  const auto interpreted = selector.predict_all(inst);
  const auto compiled = bank.predict_all(inst);
  ASSERT_EQ(interpreted.size(), compiled.size());
  for (std::size_t i = 0; i < interpreted.size(); ++i) {
    EXPECT_EQ(interpreted[i].uid, compiled[i].uid);
    EXPECT_EQ(interpreted[i].usable, compiled[i].usable);
    EXPECT_EQ(interpreted[i].time_us, compiled[i].time_us)
        << "uid " << interpreted[i].uid << " at m=" << inst.msize
        << " n=" << inst.nodes << " ppn=" << inst.ppn;
  }
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
        EXPECT_EQ(selector.select_uid(inst), bank.select_uid(inst))
            << learner << " @" << threads << " threads";
      }
      // The grid path agrees with per-instance selection.
      const std::vector<int> picked = bank.select_grid(instances);
      ASSERT_EQ(picked.size(), instances.size());
      for (std::size_t i = 0; i < instances.size(); ++i) {
        EXPECT_EQ(picked[i], selector.select_uid(instances[i]))
            << learner << " grid[" << i << "] @" << threads;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CompiledEquivalence,
                         ::testing::Values(11u, 23u, 47u));

// ---- fault-injection equivalence -----------------------------------------

TEST(CompiledBank, ForcedPredictionsMatchInterpretedPath) {
  const bench::Dataset ds = random_dataset(5);
  tune::Selector selector(tune::SelectorOptions{.learner = "knn"});
  ASSERT_GT(selector.fit(ds, ds.node_counts()).uids_total(), 2u);
  const tune::CompiledBank bank = selector.compile();
  const std::vector<int> uids = selector.uids();
  const bench::Instance inst{8, 4, 4096};

  // Poison one uid: both paths must exclude it identically.
  {
    fi::ScopedFaults faults(
        {.forced_predictions = {{uids.front(), -1.0}}});
    expect_identical(selector, bank, inst);
    EXPECT_EQ(selector.select_uid(inst), bank.select_uid(inst));
  }
  // Poison every uid: both paths must degrade to the library default.
  {
    fi::Faults faults;
    for (const int uid : uids) {
      faults.forced_predictions[uid] = std::nan("");
    }
    fi::ScopedFaults scoped(std::move(faults));
    const int interpreted = selector.select_uid_or_default(
        inst, sim::MpiLib::kOpenMPI, sim::Collective::kBcast);
    const int compiled = bank.select_uid_or_default(
        inst, sim::MpiLib::kOpenMPI, sim::Collective::kBcast);
    EXPECT_EQ(interpreted, compiled);
  }
}

// ---- grid selection vs the interpreted selector --------------------------

TEST(CompiledBankLayouts, GridAndSavedEnvelopeMatchInterpretedArgmin) {
  const bench::Dataset ds = random_dataset(19);
  std::vector<bench::Instance> grid = ds.instances();
  const std::vector<bench::Instance> off = random_instances(57, 48);
  grid.insert(grid.end(), off.begin(), off.end());

  for (const char* learner : kAllLearners) {
    tune::Selector selector(tune::SelectorOptions{.learner = learner});
    ASSERT_GT(selector.fit(ds, ds.node_counts()).uids_total(), 0u)
        << learner;
    const tune::CompiledBank bank = selector.compile();

    // The loaded bank rebuilds its rank tables and KNN grids.
    const std::filesystem::path path =
        std::filesystem::temp_directory_path() /
        (std::string("mpicp_cb_v2_") + learner + ".txt");
    bank.save(path);
    const tune::CompiledBank loaded = tune::CompiledBank::load(path);
    std::filesystem::remove(path);

    std::vector<int> grid_picks(grid.size(), 0);
    for (const int threads : {1, 4}) {
      support::ScopedThreads scoped(threads);
      std::vector<int> interpreted(grid.size(), 0);
      for (std::size_t i = 0; i < grid.size(); ++i) {
        interpreted[i] = selector.select_uid(grid[i]);
      }
      bank.select_grid_into(grid, grid_picks);
      for (std::size_t i = 0; i < grid.size(); ++i) {
        ASSERT_EQ(grid_picks[i], interpreted[i])
            << learner << " grid argmin @" << threads << " threads, m="
            << grid[i].msize << " n=" << grid[i].nodes
            << " ppn=" << grid[i].ppn;
      }
      EXPECT_EQ(loaded.select_grid(grid), interpreted)
          << learner << " v2 envelope @" << threads << " threads";
    }
  }
}

TEST(CompiledBankLayouts, GridHonorsFaultInjection) {
  const bench::Dataset ds = random_dataset(19);
  const std::vector<bench::Instance> grid = ds.instances();
  for (const char* learner : {"xgboost", "rf"}) {
    tune::Selector selector(tune::SelectorOptions{.learner = learner});
    ASSERT_GT(selector.fit(ds, ds.node_counts()).uids_total(), 2u)
        << learner;
    const tune::CompiledBank bank = selector.compile();
    const std::vector<int> uids = selector.uids();

    // Poison one uid: the grid path must exclude it exactly like the
    // interpreted selector does.
    fi::ScopedFaults faults({.forced_predictions = {{uids.front(), -1.0}}});
    std::vector<int> interpreted(grid.size(), 0);
    for (std::size_t i = 0; i < grid.size(); ++i) {
      interpreted[i] = selector.select_uid(grid[i]);
    }
    const std::vector<int> grid_picks = bank.select_grid(grid);
    EXPECT_EQ(grid_picks, interpreted) << learner;
    for (const int pick : grid_picks) {
      EXPECT_NE(pick, uids.front()) << learner;
    }
  }
}

// ---- incremental lowering vs full rebuild ---------------------------------

TEST(FlatBankLowering, IncrementalAddMatchesFullRebuildOnLoad) {
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

  // add() derives each model's rank-cell table on its own; load()
  // rebuilds every derived pool from the saved canonical ones.
  ml::FlatBank incremental;
  for (const auto& model : models) incremental.add(*model);
  std::stringstream envelope;
  incremental.save(envelope);
  ml::FlatBank rebuilt;
  rebuilt.load(envelope);
  ASSERT_EQ(rebuilt.size(), incremental.size());
  for (const std::size_t i : {0u, 2u, 4u}) {
    EXPECT_TRUE(incremental.has_rank_table(i)) << "model " << i;
    EXPECT_TRUE(rebuilt.has_rank_table(i)) << "model " << i;
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
  ml::FlatScratch sa;
  ml::FlatScratch sb;
  for (std::size_t q = 0; q < count; ++q) {
    const std::span<const double> v(queries.data() + 3 * q, 3);
    incremental.begin_query(sa);
    rebuilt.begin_query(sb);
    for (std::size_t i = 0; i < incremental.size(); ++i) {
      EXPECT_EQ(incremental.predict_one(i, v, sa),
                rebuilt.predict_one(i, v, sb))
          << "model " << i << " query " << q;
      EXPECT_EQ(incremental.predict_one(i, v, sa), models[i]->predict_one(v))
          << "model " << i << " query " << q;
    }
  }
}

// ---- loader hardening ------------------------------------------------------

/// Loads `lines` (one envelope value per line) as a flat bank and
/// returns the ParseError message, or "" when the load succeeds.
std::string flatbank_load_error(const std::vector<std::string>& lines) {
  std::stringstream envelope;
  for (const std::string& line : lines) envelope << line << '\n';
  ml::FlatBank bank;
  try {
    bank.load(envelope);
  } catch (const ParseError& e) {
    return e.what();
  }
  return "";
}

/// The envelope lines of `bank` and the line of its first basis-pool
/// value: the v4 layout puts, after the model fields, the node pool
/// (count, 5 values per node), then five vectors (tree roots, points,
/// targets, scaler means, scaler inverse deviations; each a size line
/// and its values), then the basis pool (count, then lo, hi, num_basis
/// per basis), the slot pool (count, then basis, feature per slot), the
/// per-model slot-index vector and the coefficient vector.
struct EnvelopeLines {
  std::vector<std::string> lines;
  std::size_t bases_line = 0;
};

EnvelopeLines envelope_lines(const ml::FlatBank& bank) {
  std::stringstream saved;
  bank.save(saved);
  EnvelopeLines out;
  for (std::string line; std::getline(saved, line);) {
    out.lines.push_back(line);
  }
  std::size_t at = 3 + 17 * bank.size();
  at += 1 + 5 * std::stoul(out.lines[at]);
  for (int v = 0; v < 5; ++v) at += 1 + std::stoul(out.lines[at]);
  out.bases_line = at;
  return out;
}

TEST(FlatBankLoad, RejectsTreeIndicesOutsideTheirPreorderPools) {
  support::Xoshiro256 rng(8);
  const std::size_t rows = 120;
  ml::Matrix x(rows, 3);
  std::vector<double> y(rows);
  for (std::size_t r = 0; r < rows; ++r) {
    x(r, 0) = static_cast<double>(rng.uniform_int(10));
    x(r, 1) = static_cast<double>(1 + rng.uniform_int(16));
    x(r, 2) = static_cast<double>(1 + rng.uniform_int(4));
    y[r] = 1.0 + x(r, 0) + x(r, 1) * x(r, 2) + rng.uniform(0.0, 0.5);
  }
  const std::unique_ptr<ml::Regressor> model = ml::make_regressor("xgboost");
  model->fit(x, y);
  ml::FlatBank bank;
  bank.add(*model);
  const std::vector<std::string> lines = envelope_lines(bank).lines;

  // v4 layout, one value per line: tag, version, model count, 17
  // values per model (tree_end is the 4th), node count, 5 values per
  // node (feature, threshold, left, right, value), then the tree-root
  // vector (size, roots).
  constexpr std::size_t kModelFields = 17;
  const std::size_t tree_end_line = 3 + 3;
  const std::size_t nodes_line = 3 + kModelFields;
  const std::size_t num_nodes = std::stoul(lines[nodes_line]);
  const auto node_line = [&](std::size_t n, std::size_t field) {
    return nodes_line + 1 + 5 * n + field;
  };
  const std::size_t roots_line = nodes_line + 1 + 5 * num_nodes;
  const std::size_t num_trees = std::stoul(lines[roots_line]);
  ASSERT_GT(num_trees, 1u);
  ASSERT_EQ(std::stoul(lines[tree_end_line]), num_trees);
  ASSERT_NE(lines[node_line(0, 0)], "-1") << "root of tree 0 is a leaf";
  ASSERT_EQ(flatbank_load_error(lines), "");

  // True when the envelope with `line` set to `value` fails to load
  // with a message naming `check`.
  const auto rejected = [&](std::size_t line, const std::string& value,
                            const std::string& check) {
    std::vector<std::string> out = lines;
    out[line] = value;
    return flatbank_load_error(out).find(check) != std::string::npos;
  };
  const std::string past_pool = std::to_string(num_nodes);
  // A back edge (root -> root) would loop the derived build forever.
  EXPECT_TRUE(rejected(node_line(0, 2), "0", "preorder"));
  // Children past the pool would read outside nodes_.
  EXPECT_TRUE(rejected(node_line(0, 3), past_pool, "preorder"));
  // A child inside the pool but in the next tree.
  EXPECT_TRUE(rejected(node_line(0, 3), lines[roots_line + 2], "preorder"));
  // Roots and per-model tree ranges outside their pools.
  EXPECT_TRUE(
      rejected(roots_line + num_trees, past_pool, "root out of range"));
  EXPECT_TRUE(rejected(roots_line + 1, "1", "do not cover"));
  EXPECT_TRUE(rejected(tree_end_line, std::to_string(num_trees + 1),
                       "tree range"));
  // The walk would read x[feature] past a kMaxKnnDim-feature query.
  EXPECT_TRUE(rejected(node_line(0, 0), std::to_string(ml::kMaxKnnDim),
                       "tree feature"));
}

TEST(FlatBankLoad, RejectsKnnFieldsOutsideTheirPools) {
  support::Xoshiro256 rng(9);
  const std::size_t rows = 20;
  ml::Matrix x(rows, 3);
  std::vector<double> y(rows);
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t f = 0; f < 3; ++f) {
      x(r, f) = static_cast<double>(rng.uniform_int(5));
    }
    y[r] = rng.uniform(1.0, 10.0);
  }
  ml::KnnRegressor model;
  model.fit(x, y);
  ml::FlatBank bank;
  bank.add(model);
  const std::vector<std::string> lines = envelope_lines(bank).lines;

  // v4 layout: tag, version, model count, then the 17 model fields:
  // kind, exp_link, tree_begin, tree_end, base_score, mean_over_trees,
  // k, points_begin, num_points, point_dim, targets_begin,
  // scaler_begin, then the GAM/coefficient fields.
  const auto field = [](std::size_t f) { return 3 + f; };
  ASSERT_EQ(lines[1], "4");
  ASSERT_EQ(lines[field(0)], "1") << "kind is kKnn";
  ASSERT_EQ(lines[field(8)], std::to_string(rows));
  ASSERT_EQ(lines[field(11)], "0") << "the model is scaled";
  ASSERT_EQ(flatbank_load_error(lines), "");

  const auto error_with = [&](std::size_t line, const std::string& value) {
    std::vector<std::string> out = lines;
    out[line] = value;
    return flatbank_load_error(out);
  };
  const auto rejected = [&](std::size_t line, const std::string& value,
                            const std::string& check) {
    return error_with(line, value).find(check) != std::string::npos;
  };
  EXPECT_TRUE(rejected(1, "3", "unsupported flatbank version"));
  EXPECT_TRUE(rejected(field(0), "5", "unknown model kind"));
  EXPECT_TRUE(rejected(field(0), "-1", "unknown model kind"));
  EXPECT_TRUE(rejected(field(6), "0", "knn k outside"));
  EXPECT_TRUE(rejected(field(6), std::to_string(ml::kMaxKnnK + 1),
                       "knn k outside"));
  EXPECT_TRUE(rejected(field(9), "0", "point_dim outside"));
  EXPECT_TRUE(rejected(field(9), "5", "point_dim outside"));
  EXPECT_TRUE(rejected(field(7), "-1", "point pool"));
  EXPECT_TRUE(rejected(field(7), "1", "point pool"));
  EXPECT_TRUE(rejected(field(8), "0", "point pool"));
  EXPECT_TRUE(rejected(field(8), std::to_string(rows + 1), "point pool"));
  EXPECT_TRUE(rejected(field(10), "1", "target pool"));
  EXPECT_TRUE(rejected(field(10), "-1", "target pool"));
  EXPECT_TRUE(rejected(field(11), "1", "scaler pools"));
  EXPECT_TRUE(rejected(field(11), "-2", "scaler pools"));
  // Fewer features over the same pools, or the model read unscaled,
  // stay inside every pool and load.
  EXPECT_EQ(error_with(field(9), "2"), "");
  EXPECT_EQ(error_with(field(11), "-1"), "");
}

TEST(FlatBankLoad, RejectsGamFieldsOutsideTheirPools) {
  support::Xoshiro256 rng(10);
  const std::size_t rows = 80;
  ml::Matrix x(rows, 3);
  std::vector<double> y(rows);
  for (std::size_t r = 0; r < rows; ++r) {
    x(r, 0) = rng.uniform(0.0, 22.0);
    x(r, 1) = rng.uniform(1.0, 64.0);
    x(r, 2) = rng.uniform(1.0, 32.0);
    y[r] = 1.0 + x(r, 0) + x(r, 1) * x(r, 2) + rng.uniform(0.0, 0.5);
  }
  const std::unique_ptr<ml::Regressor> model = ml::make_regressor("gam");
  model->fit(x, y);
  ml::FlatBank bank;
  bank.add(*model);
  const EnvelopeLines env = envelope_lines(bank);
  const std::vector<std::string>& lines = env.lines;

  // Model fields 12-16: slot_begin, num_bases, basis_size, coef_begin,
  // coef_len.
  const auto field = [](std::size_t f) { return 3 + f; };
  ASSERT_EQ(lines[field(0)], "2") << "kind is kGam";
  ASSERT_EQ(lines[field(13)], "3");
  const std::size_t num_bases = std::stoul(lines[env.bases_line]);
  const auto basis_line = [&](std::size_t b, std::size_t f) {
    return env.bases_line + 1 + 3 * b + f;
  };
  const std::size_t slots_line = basis_line(num_bases, 0);
  const std::size_t num_slots = std::stoul(lines[slots_line]);
  const auto slot_line = [&](std::size_t s, std::size_t f) {
    return slots_line + 1 + 2 * s + f;
  };
  const std::size_t gam_slots_line = slot_line(num_slots, 0);
  ASSERT_EQ(num_bases, 3u);
  ASSERT_EQ(num_slots, 3u);
  ASSERT_EQ(lines[gam_slots_line], "3");
  ASSERT_EQ(lines[basis_line(0, 2)], lines[field(14)]);
  ASSERT_EQ(flatbank_load_error(lines), "");

  const auto rejected = [&](std::size_t line, const std::string& value,
                            const std::string& check) {
    std::vector<std::string> out = lines;
    out[line] = value;
    return flatbank_load_error(out).find(check) != std::string::npos;
  };
  const std::string coef_len = lines[field(16)];
  EXPECT_TRUE(rejected(field(15), "-1", "coefficient pool"));
  EXPECT_TRUE(rejected(field(15), "1", "coefficient pool"));
  EXPECT_TRUE(rejected(field(16), std::to_string(std::stoul(coef_len) + 1),
                       "coefficient pool"));
  EXPECT_TRUE(rejected(field(14), std::to_string(
                                      std::stoul(lines[field(14)]) + 1),
                       "do not match its bases"));
  EXPECT_TRUE(rejected(field(12), "-1", "slot range"));
  EXPECT_TRUE(rejected(field(12), "1", "slot range"));
  EXPECT_TRUE(rejected(gam_slots_line + 3, "-1", "slot index"));
  EXPECT_TRUE(
      rejected(gam_slots_line + 3, std::to_string(num_slots), "slot index"));
  EXPECT_TRUE(rejected(slot_line(2, 0), "-1", "basis index"));
  EXPECT_TRUE(
      rejected(slot_line(2, 0), std::to_string(num_bases), "basis index"));
  EXPECT_TRUE(rejected(slot_line(2, 1), "-1", "slot feature"));
  EXPECT_TRUE(rejected(slot_line(2, 1), std::to_string(ml::kMaxKnnDim),
                       "slot feature"));
  // A basis wider than its model's basis_size would write past the
  // model's stride in the scratch slot values.
  EXPECT_TRUE(rejected(basis_line(2, 2),
                       std::to_string(std::stoul(lines[field(14)]) + 1),
                       "basis size differs"));
}

TEST(FlatBankLoad, RejectsLinearAndConstantFieldsOutsideTheirPools) {
  support::Xoshiro256 rng(12);
  const std::size_t rows = 40;
  ml::Matrix x(rows, 4);
  std::vector<double> y(rows);
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t f = 0; f < 4; ++f) x(r, f) = rng.uniform(0.0, 10.0);
    y[r] = 2.0 + x(r, 0) + 3.0 * x(r, 3) + rng.uniform(0.0, 0.5);
  }
  ml::FlatBank bank;
  for (const char* learner : {"linear", "median"}) {
    const std::unique_ptr<ml::Regressor> model = ml::make_regressor(learner);
    model->fit(x, y);
    bank.add(*model);
  }
  const std::vector<std::string> lines = envelope_lines(bank).lines;
  // Model fields 15-16 (coef_begin, coef_len) of the linear model, then
  // of the constant one; the coefficient pool holds 5 + 1 values.
  const auto field = [](std::size_t model, std::size_t f) {
    return 3 + 17 * model + f;
  };
  ASSERT_EQ(lines[field(0, 0)], "3") << "kind is kLinear";
  ASSERT_EQ(lines[field(1, 0)], "4") << "kind is kConstant";
  ASSERT_EQ(lines[field(0, 16)], "5");
  ASSERT_EQ(lines[field(1, 15)], "5");
  ASSERT_EQ(flatbank_load_error(lines), "");

  const auto rejected = [&](std::size_t line, const std::string& value,
                            const std::string& check) {
    std::vector<std::string> out = lines;
    out[line] = value;
    return flatbank_load_error(out).find(check) != std::string::npos;
  };
  EXPECT_TRUE(rejected(field(0, 15), "-1", "coefficient pool"));
  EXPECT_TRUE(rejected(field(0, 15), "2", "coefficient pool"));
  EXPECT_TRUE(rejected(field(0, 16), "0", "coefficient pool"));
  EXPECT_TRUE(rejected(field(0, 16), "7", "coefficient pool"));
  // Inside the pool, but the kernel would read x[4] of a query holding
  // at most kMaxKnnDim features.
  EXPECT_TRUE(rejected(field(0, 16), "6", "over kMaxKnnDim"));
  EXPECT_TRUE(rejected(field(1, 15), "-1", "coefficient pool"));
  EXPECT_TRUE(rejected(field(1, 15), "6", "coefficient pool"));
  EXPECT_TRUE(rejected(field(1, 16), "0", "coefficient pool"));
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
  bank.begin_query(scratch);
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
      bank.add(*models.back());
    }
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
      flat.begin_query(scratch);
      for (std::size_t i = 0; i < flat.size(); ++i) {
        const double fast = flat.predict_one(i, x, scratch);
        EXPECT_EQ(bits(fast),
                  bits(selector.predicted_time_us(bank.uids()[i], inst)))
            << learner << " uid " << bank.uids()[i] << " m=" << inst.msize
            << " n=" << inst.nodes << " ppn=" << inst.ppn;
      }
    }
    std::vector<int> expected(stream.size());
    for (std::size_t q = 0; q < stream.size(); ++q) {
      expected[q] = selector.select_uid(stream[q]);
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
        EXPECT_EQ(selector.select_uid(stream[q]), bank.select_uid(stream[q]))
            << learner << " query " << q << " @" << threads;
      }
      EXPECT_EQ(bank.select_grid(stream), expected)
          << learner << " grid @" << threads;
    }
  }
}

TEST(CompiledBankRankTables, ForcedPredictionsOverrideTableValues) {
  const bench::Dataset ds = random_dataset(31);
  const std::vector<bench::Instance> stream = offgrid_instances(202, 32);
  for (const char* learner : {"xgboost", "rf"}) {
    tune::Selector selector(tune::SelectorOptions{.learner = learner});
    ASSERT_GT(selector.fit(ds, ds.node_counts()).uids_total(), 2u)
        << learner;
    const tune::CompiledBank bank = selector.compile();
    const std::vector<int> uids = selector.uids();
    for (std::size_t i = 0; i < bank.num_models(); ++i) {
      ASSERT_TRUE(bank.flat().has_rank_table(i)) << learner;
    }
    // Poison the lowest uid and force the highest to a zero time: every
    // table-served query must pick the forced uid, exactly as the
    // interpreted selector does.
    fi::ScopedFaults faults({.forced_predictions = {{uids.front(), -1.0},
                                                    {uids.back(), 0.0}}});
    for (const bench::Instance& inst : stream) {
      const auto preds = bank.predict_all(inst);
      EXPECT_EQ(preds.front().time_us, -1.0) << learner;
      EXPECT_FALSE(preds.front().usable) << learner;
      EXPECT_EQ(preds.back().time_us, 0.0) << learner;
      expect_identical(selector, bank, inst);
      EXPECT_EQ(bank.select_uid(inst), uids.back()) << learner;
      EXPECT_EQ(selector.select_uid(inst), uids.back()) << learner;
    }
    EXPECT_EQ(bank.select_grid(stream),
              std::vector<int>(stream.size(), uids.back()))
        << learner;
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
        interpreted[q] = selector.select_uid(queries[q]);
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
      bank.begin_query(scratch);
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
  ml::FlatBank bank;
  for (const KnnGridModel& c : cases) bank.add(*c.model);
  std::stringstream saved;
  bank.save(saved);
  ml::FlatBank loaded;
  loaded.load(saved);
  for (std::size_t i = 0; i < cases.size(); ++i) {
    ASSERT_TRUE(bank.has_knn_grid(i)) << cases[i].name;
    ASSERT_TRUE(loaded.has_knn_grid(i)) << cases[i].name;
    const auto queries = knn_queries(cases[i].x, 100 + i);
    expect_knn_matches_reference(bank, i, *cases[i].model, queries,
                                 cases[i].name);
    expect_knn_matches_reference(loaded, i, *cases[i].model, queries,
                                 cases[i].name + " (loaded)");
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
  ml::FlatBank bank;
  std::vector<std::unique_ptr<ml::KnnRegressor>> models;
  for (const auto& [name, x] : sets) {
    std::vector<double> y(x.rows());
    for (double& v : y) v = rng.uniform(1.0, 100.0);
    models.push_back(std::make_unique<ml::KnnRegressor>());
    models.back()->fit(x, y);
    bank.add(*models.back());
  }
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
  ml::FlatBank bank;
  EXPECT_THROW(bank.add(five_features), InvalidArgument);
  ml::KnnParams params;
  params.k = ml::kMaxKnnK + 1;
  ml::KnnRegressor wide(params);
  ml::Matrix x3(8, 3);
  wide.fit(x3, y);
  EXPECT_THROW(bank.add(wide), InvalidArgument);
  EXPECT_EQ(bank.size(), 0u);
}

// ---- save / load round trip ----------------------------------------------

TEST(CompiledBank, SaveLoadRoundTripIsExact) {
  const bench::Dataset ds = random_dataset(13);
  const auto instances = random_instances(17, 16);
  for (const char* learner : kAllLearners) {
    tune::Selector selector(tune::SelectorOptions{.learner = learner});
    ASSERT_GT(selector.fit(ds, ds.node_counts()).uids_total(), 0u)
        << learner;
    const tune::CompiledBank bank = selector.compile();

    const std::filesystem::path path =
        std::filesystem::temp_directory_path() /
        (std::string("mpicp_compiled_bank_") + learner + ".txt");
    bank.save(path);
    const tune::CompiledBank loaded = tune::CompiledBank::load(path);
    std::filesystem::remove(path);

    EXPECT_EQ(loaded.uids(), bank.uids()) << learner;
    for (const bench::Instance& inst : instances) {
      const auto before = bank.predict_all(inst);
      const auto after = loaded.predict_all(inst);
      ASSERT_EQ(before.size(), after.size());
      for (std::size_t i = 0; i < before.size(); ++i) {
        EXPECT_EQ(before[i].time_us, after[i].time_us)
            << learner << " uid " << before[i].uid;
        EXPECT_EQ(before[i].usable, after[i].usable);
      }
    }
  }
}

TEST(CompiledBank, LoadRejectsOutdatedEnvelopes) {
  const bench::Dataset ds = random_dataset(13);
  tune::Selector selector(tune::SelectorOptions{.learner = "xgboost"});
  ASSERT_GT(selector.fit(ds, ds.node_counts()).uids_total(), 0u);
  const std::filesystem::path path =
      std::filesystem::temp_directory_path() / "mpicp_compiled_bank_v1.txt";
  selector.compile().save(path);
  std::string contents;
  {
    std::ifstream is(path);
    std::stringstream ss;
    ss << is.rdbuf();
    contents = ss.str();
  }
  // Only the current versions are written or loaded: a version-1 bank
  // header, or a nested flatbank envelope older than version 4 (v3
  // carried the blocked-layout depth, v2 the compiled kd-tree), is a
  // parse error.
  const std::pair<std::string, std::string> downgrades[] = {
      {"mpicp-compiled-bank 2\n", "mpicp-compiled-bank 1\n"},
      {"flatbank\n4\n", "flatbank\n3\n"},
      {"flatbank\n4\n", "flatbank\n2\n"},
      {"flatbank\n4\n", "flatbank\n1\n"}};
  for (const auto& [from, to] : downgrades) {
    std::string v1 = contents;
    const std::size_t at = v1.find(from);
    ASSERT_NE(at, std::string::npos) << from;
    v1.replace(at, from.size(), to);
    {
      std::ofstream os(path);
      os << v1;
    }
    EXPECT_THROW((void)tune::CompiledBank::load(path), ParseError) << to;
  }
  std::filesystem::remove(path);
}

// ---- contracts ------------------------------------------------------------

TEST(CompiledBank, CompilingAnUnfittedSelectorThrows) {
  tune::Selector selector;
  EXPECT_THROW((void)selector.compile(), std::exception);
}

TEST(CompiledBank, ServingFromAnEmptyBankThrows) {
  const tune::CompiledBank bank;
  EXPECT_THROW((void)bank.select_uid({4, 4, 1024}), std::exception);
  EXPECT_THROW((void)bank.predict_all({4, 4, 1024}), std::exception);
}

}  // namespace
}  // namespace mpicp
