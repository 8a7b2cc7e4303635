// Differential fidelity harness for the distilled rule-table export
// (tune/ruletable.hpp): the fitted DecisionRules tree, its flat
// RuleTable lowering and the *compiled and executed* output of
// DecisionRules::to_c_code must agree on every distillation grid point
// and on randomized off-grid instances — for every learner, at thread
// counts 1 and 4, and through the table's save/load round trip.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "collbench/dataset.hpp"
#include "support/parallel.hpp"
#include "support/rng.hpp"
#include "tune/compiled_bank.hpp"
#include "tune/ruletable.hpp"
#include "tune/selector.hpp"

namespace mpicp {
namespace {

/// Seeded synthetic dataset: 3-6 algorithms with distinct random cost
/// models over a random grid (same recipe as the compiled-bank suite).
bench::Dataset random_dataset(std::uint64_t seed) {
  support::Xoshiro256 rng(seed);
  bench::Dataset ds("ruletable", sim::MpiLib::kOpenMPI,
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

/// Randomized off-grid probes, including non-power-of-two message sizes
/// (the boundary-exactness cases for the emitted integer comparisons).
std::vector<bench::Instance> random_instances(std::uint64_t seed,
                                              int count) {
  support::Xoshiro256 rng(seed);
  std::vector<bench::Instance> out;
  out.reserve(static_cast<std::size_t>(count));
  for (int i = 0; i < count; ++i) {
    const std::uint64_t base = std::uint64_t{1} << rng.uniform_int(22);
    out.push_back({1 + static_cast<int>(rng.uniform_int(64)),
                   1 + static_cast<int>(rng.uniform_int(16)),
                   base + rng.uniform_int(base)});
  }
  return out;
}

constexpr const char* kAllLearners[] = {"xgboost", "rf",     "knn",
                                        "gam",     "linear", "median"};

/// Compile `to_c_code` output with the system C compiler and execute it
/// on `instances` via a scanf/printf harness; nullopt when no working
/// compiler is on PATH (the caller skips, never passes vacuously).
std::optional<std::vector<int>> run_generated_c(
    const std::string& c_source, const std::string& function_name,
    const std::vector<bench::Instance>& instances, const std::string& tag) {
  namespace fs = std::filesystem;
  const fs::path dir = fs::temp_directory_path() / ("mpicp_rulec_" + tag);
  fs::create_directories(dir);
  const fs::path src = dir / "rules.c";
  const fs::path bin = dir / "rules_bin";
  const fs::path input = dir / "input.txt";
  const fs::path output = dir / "output.txt";
  {
    std::ofstream os(src);
    os << "#include <stdio.h>\n\n"
       << c_source << "\n"
       << "int main(void) {\n"
       << "  unsigned long long msize; int nodes, ppn;\n"
       << "  while (scanf(\"%llu %d %d\", &msize, &nodes, &ppn) == 3) {\n"
       << "    printf(\"%d\\n\", " << function_name
       << "(msize, nodes, ppn));\n"
       << "  }\n"
       << "  return 0;\n"
       << "}\n";
  }
  {
    std::ofstream os(input);
    for (const bench::Instance& inst : instances) {
      os << inst.msize << ' ' << inst.nodes << ' ' << inst.ppn << '\n';
    }
  }
  const std::string compile = "cc -O1 -o '" + bin.string() + "' '" +
                              src.string() + "' 2>/dev/null";
  if (std::system(compile.c_str()) != 0) return std::nullopt;
  const std::string run = "'" + bin.string() + "' < '" + input.string() +
                          "' > '" + output.string() + "'";
  if (std::system(run.c_str()) != 0) return std::nullopt;
  std::ifstream is(output);
  std::vector<int> uids;
  uids.reserve(instances.size());
  int uid = 0;
  while (is >> uid) uids.push_back(uid);
  fs::remove_all(dir);
  if (uids.size() != instances.size()) return std::nullopt;
  return uids;
}

// ---- tree == table == executed C, all learners, both thread counts -------

TEST(RuleTableDifferential, TreeTableAndGeneratedCAgreeEverywhere) {
  const bench::Dataset ds = random_dataset(21);
  const std::vector<bench::Instance> grid = ds.instances();
  const std::vector<bench::Instance> off_grid = random_instances(77, 64);
  std::vector<bench::Instance> probes = grid;
  probes.insert(probes.end(), off_grid.begin(), off_grid.end());

  for (const char* learner : kAllLearners) {
    tune::Selector selector(tune::SelectorOptions{.learner = learner});
    ASSERT_GT(selector.fit(ds, ds.node_counts()).uids_total(), 0u)
        << learner;
    const tune::RuleDistillation dist =
        selector.distill(grid, {.max_depth = 32});

    // An uncapped tree on a label-distinct grid reproduces the bank.
    EXPECT_EQ(dist.agreement, 1.0) << learner;
    EXPECT_EQ(dist.table.agreement(), dist.agreement) << learner;
    EXPECT_EQ(dist.table.num_nodes(), dist.rules.num_nodes()) << learner;
    EXPECT_EQ(dist.table.num_leaves(), dist.rules.num_leaves()) << learner;

    // Save/load round trip: the served table is the loaded one.
    const std::filesystem::path path =
        std::filesystem::temp_directory_path() /
        (std::string("mpicp_ruletable_") + learner + ".txt");
    dist.table.save(path);
    const tune::RuleTable loaded = tune::RuleTable::load(path);
    std::filesystem::remove(path);
    EXPECT_EQ(loaded.agreement(), dist.table.agreement()) << learner;
    ASSERT_EQ(loaded.num_nodes(), dist.table.num_nodes()) << learner;

    for (const int threads : {1, 4}) {
      support::ScopedThreads scoped(threads);
      for (const bench::Instance& inst : probes) {
        const int tree_uid = dist.rules.uid_for(inst);
        ASSERT_EQ(dist.table.uid_for(inst), tree_uid)
            << learner << " @" << threads << " threads, m=" << inst.msize
            << " n=" << inst.nodes << " ppn=" << inst.ppn;
        ASSERT_EQ(loaded.uid_for(inst), tree_uid)
            << learner << " (loaded) @" << threads << " threads";
      }
      // The batched path agrees with per-instance dispatch.
      const std::vector<int> batched = dist.table.select_grid(probes);
      ASSERT_EQ(batched.size(), probes.size());
      for (std::size_t i = 0; i < probes.size(); ++i) {
        ASSERT_EQ(batched[i], dist.rules.uid_for(probes[i]))
            << learner << " grid[" << i << "] @" << threads;
      }
    }

    // The emitted C, compiled and executed, is the third equal voice.
    const std::string fn = std::string("mpicp_rules_") + learner;
    const auto executed =
        run_generated_c(dist.rules.to_c_code(fn), fn, probes, learner);
    if (!executed.has_value()) {
      GTEST_SKIP() << "no working C compiler on PATH";
    }
    for (std::size_t i = 0; i < probes.size(); ++i) {
      ASSERT_EQ((*executed)[i], dist.rules.uid_for(probes[i]))
          << learner << " generated C diverges at m=" << probes[i].msize
          << " n=" << probes[i].nodes << " ppn=" << probes[i].ppn;
    }
  }
}

// ---- blocked layout vs legacy walk, through the saved envelope ----------

TEST(RuleTableBlocked, BlockedBatchedAndSavedEnvelopeMatchLegacyWalk) {
  const bench::Dataset ds = random_dataset(29);
  const std::vector<bench::Instance> grid = ds.instances();
  std::vector<bench::Instance> probes = grid;
  const std::vector<bench::Instance> off_grid = random_instances(101, 96);
  probes.insert(probes.end(), off_grid.begin(), off_grid.end());

  for (const char* learner : kAllLearners) {
    tune::Selector selector(tune::SelectorOptions{.learner = learner});
    ASSERT_GT(selector.fit(ds, ds.node_counts()).uids_total(), 0u)
        << learner;
    const tune::RuleDistillation dist =
        selector.distill(grid, {.max_depth = 32});
    const tune::RuleTable& table = dist.table;

    // The v2 envelope carries the blocked geometry; the loaded table
    // re-lowers its blocked form.
    const std::filesystem::path path =
        std::filesystem::temp_directory_path() /
        (std::string("mpicp_rt_v2_") + learner + ".txt");
    table.save(path);
    const tune::RuleTable loaded = tune::RuleTable::load(path);
    std::filesystem::remove(path);
    EXPECT_EQ(loaded.agreement(), table.agreement()) << learner;

    std::vector<int> batched(probes.size(), 0);
    for (const int threads : {1, 4}) {
      support::ScopedThreads scoped(threads);
      table.select_grid_into(probes, batched);
      for (std::size_t i = 0; i < probes.size(); ++i) {
        const int legacy = table.uid_for_legacy(probes[i]);
        ASSERT_EQ(table.uid_for(probes[i]), legacy)
            << learner << " blocked walk @" << threads << " threads, m="
            << probes[i].msize << " n=" << probes[i].nodes
            << " ppn=" << probes[i].ppn;
        ASSERT_EQ(batched[i], legacy)
            << learner << " batched dispatch @" << threads << " threads";
        ASSERT_EQ(loaded.uid_for(probes[i]), legacy)
            << learner << " v2 envelope @" << threads << " threads";
      }
    }
  }
}

// ---- persistence contracts -----------------------------------------------

TEST(RuleTable, LoadRejectsCorruptAndTruncatedFiles) {
  const bench::Dataset ds = random_dataset(5);
  tune::Selector selector(tune::SelectorOptions{.learner = "knn"});
  ASSERT_GT(selector.fit(ds, ds.node_counts()).uids_total(), 0u);
  const tune::RuleDistillation dist = selector.distill(ds.instances());

  const std::filesystem::path path =
      std::filesystem::temp_directory_path() / "mpicp_ruletable_corrupt.txt";
  dist.table.save(path);
  std::string contents;
  {
    std::ifstream is(path);
    std::stringstream ss;
    ss << is.rdbuf();
    contents = ss.str();
  }
  {
    // Flip one payload byte: the checksum must catch it.
    std::string corrupt = contents;
    corrupt[corrupt.size() - 2] ^= 0x01;
    std::ofstream os(path);
    os << corrupt;
  }
  EXPECT_THROW((void)tune::RuleTable::load(path), ParseError);
  {
    // Drop the tail: the byte count must catch it.
    std::ofstream os(path);
    os << contents.substr(0, contents.size() / 2);
  }
  EXPECT_THROW((void)tune::RuleTable::load(path), ParseError);
  {
    // A version-1 header: only version 2 is written or loaded.
    const std::string header = "mpicp-ruletable 2 ";
    ASSERT_EQ(contents.rfind(header, 0), 0u);
    std::ofstream os(path);
    os << "mpicp-ruletable 1 " << contents.substr(header.size());
  }
  EXPECT_THROW((void)tune::RuleTable::load(path), ParseError);
  std::filesystem::remove(path);
}

TEST(RuleTable, EmptyTableContracts) {
  const tune::RuleTable table;
  EXPECT_TRUE(table.empty());
  EXPECT_THROW(
      table.save(std::filesystem::temp_directory_path() / "mpicp_rt.txt"),
      std::exception);
  const std::vector<bench::Instance> grid = {{4, 4, 1024}};
  EXPECT_THROW((void)table.select_grid(grid), std::exception);
}

}  // namespace
}  // namespace mpicp
