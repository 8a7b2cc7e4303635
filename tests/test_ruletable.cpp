// Differential fidelity harness for the distilled rule-table export
// (tune/ruletable.hpp): a reference walk of the stored split thresholds,
// the fitted RuleTable, the same table saved and loaded, and the
// *compiled and executed* output of RuleTable::to_c_code must agree on
// every distillation grid point and on randomized off-grid instances —
// for every learner, at thread counts 1 and 4. The v3 envelope bytes
// are pinned, and the loader's structural checks are probed with
// hand-edited, re-checksummed files.
#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>
#include <fstream>
#include <limits>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "collbench/dataset.hpp"
#include "ml/io.hpp"
#include "support/parallel.hpp"
#include "support/rng.hpp"
#include "tune/compiled_bank.hpp"
#include "tune/ruletable.hpp"
#include "tune/selector.hpp"

#include "rule_voices.hpp"

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

// ---- reference == table == loaded table == executed C -------------------

struct DifferentialCase {
  std::uint64_t dataset_seed;
  std::uint64_t probe_seed;
  int off_grid_probes;
};

class RuleTableDifferential
    : public ::testing::TestWithParam<DifferentialCase> {};

TEST_P(RuleTableDifferential, TreeTableAndGeneratedCAgreeEverywhere) {
  const DifferentialCase c = GetParam();
  const bench::Dataset ds = random_dataset(c.dataset_seed);
  const std::vector<bench::Instance> grid = ds.instances();
  const std::vector<bench::Instance> off_grid =
      random_instances(c.probe_seed, c.off_grid_probes);
  std::vector<bench::Instance> probes = grid;
  probes.insert(probes.end(), off_grid.begin(), off_grid.end());

  bool c_ran = true;
  for (const char* learner : kAllLearners) {
    std::string c_source;
    for (const int threads : {1, 4}) {
      support::ScopedThreads scoped(threads);
      tune::Selector selector(tune::SelectorOptions{.learner = learner});
      ASSERT_GT(selector.fit(ds, ds.node_counts()).uids_total(), 0u)
          << learner;
      const tune::RuleDistillation dist =
          tune::distill(selector.compile(), grid, {.max_depth = 32});

      // An uncapped tree on a label-distinct grid reproduces the bank.
      EXPECT_EQ(dist.table.agreement(), 1.0) << learner;
      // The thread count never changes the distilled table.
      const std::string source = dist.table.to_c_code("f");
      if (threads == 1) c_source = source;
      EXPECT_EQ(source, c_source) << learner << " @" << threads;

      const std::string tag = "diff_" + std::to_string(c.dataset_seed) +
                              "_" + learner + "_" + std::to_string(threads);
      bool ran = false;
      ASSERT_TRUE(rule_voices::four_voices_agree(dist.table, probes, tag, ran))
          << learner << " @" << threads << " threads";
      c_ran = c_ran && ran;
    }
  }
  if (!c_ran) GTEST_SKIP() << "no working C compiler on PATH";
}

INSTANTIATE_TEST_SUITE_P(Seeds, RuleTableDifferential,
                         ::testing::Values(DifferentialCase{21, 77, 64},
                                           DifferentialCase{29, 101, 96}));

// ---- persistence contracts -----------------------------------------------

TEST(RuleTable, LoadRejectsCorruptAndTruncatedFiles) {
  const bench::Dataset ds = random_dataset(5);
  tune::Selector selector(tune::SelectorOptions{.learner = "knn"});
  ASSERT_GT(selector.fit(ds, ds.node_counts()).uids_total(), 0u);
  const tune::RuleDistillation dist =
      tune::distill(selector.compile(), ds.instances());

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
    // A version-1 header: only version 3 is written or loaded.
    const std::string header = "mpicp-ruletable 3 ";
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
  EXPECT_EQ(table.num_nodes(), 0);
  EXPECT_EQ(table.num_leaves(), 0);
  EXPECT_THROW(
      table.save(std::filesystem::temp_directory_path() / "mpicp_rt.txt"),
      std::exception);
  EXPECT_THROW((void)table.uid_for({4, 4, 1024}), std::exception);
  EXPECT_THROW((void)table.to_c_code("f"), std::exception);
  EXPECT_THROW((void)tune::RuleTable::fit({}), std::exception);
}

/// Reads a whole file into a string.
std::string slurp(const std::filesystem::path& path) {
  std::ifstream is(path);
  std::stringstream ss;
  ss << is.rdbuf();
  return ss.str();
}

/// A tiny hand-labeled grid and the table fitted on it: small message
/// sizes go to uid 1, larger ones to uid 2 on fewer than 16 processes
/// and to uid 3 otherwise. 3000 bytes puts a non-power-of-two
/// midpoint into the log2 thresholds.
tune::RuleTable hand_built_table() {
  std::vector<tune::LabeledInstance> points;
  for (const int nodes : {2, 8, 32}) {
    for (const int ppn : {1, 4}) {
      for (const std::uint64_t m :
           {std::uint64_t{64}, std::uint64_t{3000}, std::uint64_t{1} << 20}) {
        const int uid = m < 1024 ? 1 : nodes * ppn < 16 ? 2 : 3;
        points.push_back({{nodes, ppn, m}, uid});
      }
    }
  }
  return tune::RuleTable::fit(points);
}

/// The v3 envelope of hand_built_table() with agreement 0.8125,
/// byte for byte. A change to the file format has to change this
/// fixture on purpose.
constexpr const char* kHandBuiltEnvelopeV3 = R"(mpicp-ruletable 3 200 37eee0cfcd40d872
0.8125
15
0
-1
1
-1
0
1
2
-1
-1
-1
1
2
-1
-1
-1
15
8.7753733926916215
0
5
0
15.775373392691622
20
2.5
0
0
0
20
2.5
0
0
0
15
1
1
3
2
5
6
7
2
3
3
11
12
2
3
3
15
2
-1
4
-1
10
9
8
-1
-1
-1
14
13
-1
-1
-1
)";

TEST(RuleTable, V3EnvelopeBytesArePinned) {
  tune::RuleTable table = hand_built_table();
  table.set_agreement(0.8125);
  const std::filesystem::path path =
      std::filesystem::temp_directory_path() / "mpicp_rt_pinned.txt";
  table.save(path);
  EXPECT_EQ(slurp(path), kHandBuiltEnvelopeV3);

  // A table saved in that format loads and picks like the fitted one.
  {
    std::ofstream os(path);
    os << kHandBuiltEnvelopeV3;
  }
  const tune::RuleTable loaded = tune::RuleTable::load(path);
  EXPECT_EQ(loaded.agreement(), 0.8125);
  EXPECT_EQ(loaded.num_nodes(), table.num_nodes());
  for (const bench::Instance& inst : random_instances(5, 256)) {
    ASSERT_EQ(loaded.uid_for(inst), table.uid_for(inst))
        << "m=" << inst.msize << " n=" << inst.nodes << " ppn=" << inst.ppn;
  }

  // The same table in the v2 format, which carried an unused
  // block-depth field (always 8) after the agreement, correctly sealed:
  // a parse error, never a table read one field off.
  const std::string v3(kHandBuiltEnvelopeV3);
  const std::string payload = v3.substr(v3.find('\n') + 1);
  const std::size_t agreement_end = payload.find('\n') + 1;
  const std::string body = payload.substr(0, agreement_end) + "8\n" +
                           payload.substr(agreement_end);
  {
    std::ofstream os(path);
    os << "mpicp-ruletable 2 " << body.size() << ' ' << std::hex
       << ml::io::fnv1a64(body) << '\n'
       << body;
  }
  EXPECT_THROW((void)tune::RuleTable::load(path), ParseError);
  std::filesystem::remove(path);
}

TEST(RuleTable, LoadRejectsChildIndicesOutsidePreorder) {
  const tune::RuleTable table = hand_built_table();
  ASSERT_GT(table.num_nodes(), 1);
  const auto n = static_cast<std::size_t>(table.num_nodes());
  const std::filesystem::path path =
      std::filesystem::temp_directory_path() / "mpicp_rt_preorder.txt";
  table.save(path);
  const std::string contents = slurp(path);
  const std::size_t header_end = contents.find('\n') + 1;
  std::vector<std::string> payload;
  {
    std::istringstream is(contents.substr(header_end));
    for (std::string line; std::getline(is, line);) payload.push_back(line);
  }
  // Payload, one value per line: agreement, then the feature,
  // threshold, left and right vectors (each a size line and n values).
  // The root is an inner node.
  const std::size_t features_line = 1;
  const std::size_t left_line = features_line + 2 * (1 + n);
  const std::size_t right_line = left_line + 1 + n;
  ASSERT_EQ(payload[features_line], std::to_string(n));
  ASSERT_EQ(payload[left_line], std::to_string(n));
  ASSERT_EQ(payload[right_line], std::to_string(n));
  ASSERT_NE(payload[features_line + 1], "-1");

  // Rewrites one payload line and re-seals the envelope with a fresh
  // byte count and checksum, so only the structural check can object.
  const auto load_edited = [&](std::size_t line, const std::string& value) {
    std::vector<std::string> edited = payload;
    edited[line] = value;
    std::string body;
    for (const std::string& l : edited) body += l + '\n';
    std::ostringstream header;
    header << "mpicp-ruletable 3 " << body.size() << ' ' << std::hex
           << ml::io::fnv1a64(body) << '\n';
    {
      std::ofstream os(path);
      os << header.str() << body;
    }
    return tune::RuleTable::load(path);
  };
  // The unedited payload re-seals to a loadable table.
  EXPECT_EQ(load_edited(left_line + 1, payload[left_line + 1]).num_nodes(),
            table.num_nodes());
  // A back edge (root -> root): the walk would never terminate.
  EXPECT_THROW((void)load_edited(left_line + 1, "0"), ParseError);
  EXPECT_THROW((void)load_edited(right_line + 1, "0"), ParseError);
  // Out of the pool on either side.
  EXPECT_THROW((void)load_edited(left_line + 1, std::to_string(n)),
               ParseError);
  EXPECT_THROW((void)load_edited(right_line + 1, "-1"), ParseError);
  std::filesystem::remove(path);
}

/// One seeded mutation of `bytes`: a bit flip, a truncation, or a splice
/// of up to 16 bytes of `source` inserted at or written over a random
/// position.
void mutate_envelope(std::string& bytes, const std::string& source,
                     support::Xoshiro256& rng) {
  if (bytes.empty()) {
    bytes = source.substr(0, 1 + rng.uniform_int(source.size()));
    return;
  }
  const std::size_t pos = rng.uniform_int(bytes.size());
  switch (rng.uniform_int(3)) {
    case 0:
      bytes[pos] = static_cast<char>(bytes[pos] ^ (1 << rng.uniform_int(8)));
      break;
    case 1:
      bytes.resize(pos);
      break;
    default: {
      const std::size_t from = rng.uniform_int(source.size());
      const std::string piece =
          source.substr(from, 1 + rng.uniform_int(16));
      if (rng.uniform_int(2) == 0) {
        bytes.insert(pos, piece);
      } else {
        bytes.replace(pos, piece.size(), piece);
      }
      break;
    }
  }
}

/// Seeded byte flips, truncations and splices of a saved table. Every
/// other mutant is re-sealed (a fresh header over whatever
/// follows its first newline), so the checksum passes and the loader's
/// structural checks are what must object. Every load either raises
/// ParseError or returns a table whose walk answers one of its own leaf
/// uids on every probe: a walk that left the pool would read out of
/// bounds, and one that looped would never return.
TEST(RuleTable, LoadSurvivesSeededMutationsOfTheV3Envelope) {
  const tune::RuleTable table = hand_built_table();
  ASSERT_GT(table.num_nodes(), 4);
  const std::filesystem::path path =
      std::filesystem::temp_directory_path() / "mpicp_rt_mutants.txt";
  table.save(path);
  const std::string contents = slurp(path);

  std::vector<bench::Instance> probes = random_instances(13, 256);
  probes.push_back({1, 1, 0});
  probes.push_back({std::numeric_limits<int>::max(),
                    std::numeric_limits<int>::max(),
                    std::numeric_limits<std::uint64_t>::max()});

  support::Xoshiro256 rng(20261020);
  int loaded[2] = {0, 0};
  int rejected[2] = {0, 0};
  for (int i = 0; i < 2000; ++i) {
    std::string mutant = contents;
    const int mutations = 1 + static_cast<int>(rng.uniform_int(3));
    for (int m = 0; m < mutations; ++m) {
      mutate_envelope(mutant, contents, rng);
    }
    const int resealed = i % 2;
    if (resealed) {
      const std::size_t newline = mutant.find('\n');
      const std::string body =
          newline == std::string::npos ? "" : mutant.substr(newline + 1);
      std::ostringstream header;
      header << "mpicp-ruletable 3 " << body.size() << ' ' << std::hex
             << ml::io::fnv1a64(body) << '\n';
      mutant = header.str() + body;
    }
    {
      std::ofstream os(path, std::ios::binary);
      os << mutant;
    }
    tune::RuleTable back;
    try {
      back = tune::RuleTable::load(path);
    } catch (const ParseError&) {
      ++rejected[resealed];
      continue;
    }
    ++loaded[resealed];
    std::set<int> leaf_uids;
    for (const tune::RuleTable::Node& node : back.nodes()) {
      if (node.feature < 0) leaf_uids.insert(node.left);
    }
    for (const bench::Instance& inst : probes) {
      ASSERT_EQ(leaf_uids.count(back.uid_for(inst)), 1u)
          << "mutant " << i << " m=" << inst.msize << " n=" << inst.nodes
          << " ppn=" << inst.ppn;
    }
  }
  std::filesystem::remove(path);
  // The checksum rejects raw mutants; re-sealed ones reach both
  // outcomes, so the structural checks did the sorting.
  EXPECT_GT(rejected[0], 900);
  EXPECT_GT(loaded[1], 0);
  EXPECT_GT(rejected[1], 0);
}

}  // namespace
}  // namespace mpicp
