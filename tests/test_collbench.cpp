// Tests for the benchmarking layer: noise model, budgeted runner,
// dataset container, dataset specs, the (parallel) generator and
// default-logic baselines.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "collbench/dataset.hpp"
#include "collbench/defaults.hpp"
#include "collbench/generator.hpp"
#include "collbench/noise.hpp"
#include "collbench/runner.hpp"
#include "collbench/specs.hpp"
#include "simmpi/coll/decision.hpp"
#include "simmpi/coll/registry.hpp"
#include "simmpi/executor.hpp"
#include "simnet/machine.hpp"
#include "support/error.hpp"
#include "support/parallel.hpp"
#include "support/rng.hpp"
#include "support/stats.hpp"
#include "support/str.hpp"

namespace mpicp::bench {
namespace {

TEST(Noise, SystematicFactorIsDeterministic) {
  const NoiseModel a(42);
  const NoiseModel b(42);
  const double fa = a.systematic_factor(1, 3, 16, 8, 1024);
  EXPECT_DOUBLE_EQ(fa, b.systematic_factor(1, 3, 16, 8, 1024));
  EXPECT_NE(fa, a.systematic_factor(1, 4, 16, 8, 1024));
  EXPECT_GT(fa, 0.0);
}

TEST(Noise, SystematicFactorNearOne) {
  const NoiseModel model(7);
  for (int uid = 1; uid <= 50; ++uid) {
    const double f = model.systematic_factor(0, uid, 8, 4, 4096);
    EXPECT_GT(f, 0.5);
    EXPECT_LT(f, 2.0);
  }
}

TEST(Noise, ObservationsCenterOnTruth) {
  const NoiseModel model(11);
  support::Xoshiro256 rng(1);
  std::vector<double> obs(4001);
  for (auto& o : obs) o = model.observe_us(1000.0, rng);
  std::sort(obs.begin(), obs.end());
  EXPECT_NEAR(obs[obs.size() / 2], 1000.0, 30.0);  // median ~ truth
  for (const double o : obs) EXPECT_GT(o, 0.0);
}

TEST(Noise, SmallRunsAreNoisier) {
  const NoiseModel model(13);
  support::Xoshiro256 rng1(2);
  support::Xoshiro256 rng2(2);
  double spread_small = 0.0;
  double spread_large = 0.0;
  for (int i = 0; i < 2000; ++i) {
    spread_small += std::abs(model.observe_us(5.0, rng1) / 5.0 - 1.0);
    spread_large +=
        std::abs(model.observe_us(1e6, rng2) / 1e6 - 1.0);
  }
  EXPECT_GT(spread_small, 1.5 * spread_large);
}

TEST(Runner, RespectsRepCap) {
  sim::Network net(sim::hydra_machine(), 4, 2);
  sim::Executor exec(net);
  const NoiseModel noise(1);
  support::Xoshiro256 rng(1);
  const auto& cfg =
      sim::algorithm_configs(sim::MpiLib::kOpenMPI, sim::Collective::kBcast)
          .front();
  const RunnerResult res =
      run_benchmark(exec, sim::MpiLib::kOpenMPI, sim::Collective::kBcast,
                    cfg, 1024, noise, {.max_reps = 7, .budget_us = 1e9},
                    rng);
  EXPECT_EQ(res.observations_us.size(), 7u);
  EXPECT_GT(res.des_time_us, 0.0);
  EXPECT_GT(res.true_time_us, 0.0);
}

TEST(Runner, BudgetTruncatesExpensiveRuns) {
  sim::Network net(sim::hydra_machine(), 16, 8);
  sim::Executor exec(net);
  const NoiseModel noise(1);
  support::Xoshiro256 rng(1);
  // The linear broadcast of 4 MiB takes several milliseconds; a 1 ms
  // budget must stop after the first observation.
  const auto& cfg =
      sim::algorithm_configs(sim::MpiLib::kOpenMPI, sim::Collective::kBcast)
          .front();
  ASSERT_EQ(cfg.name, "linear");
  const RunnerResult res = run_benchmark(
      exec, sim::MpiLib::kOpenMPI, sim::Collective::kBcast, cfg, 4u << 20,
      noise, {.max_reps = 500, .budget_us = 1000.0}, rng);
  EXPECT_EQ(res.observations_us.size(), 1u);
}

TEST(Dataset, MedianAggregationAndBest) {
  Dataset ds("t", sim::MpiLib::kOpenMPI, sim::Collective::kBcast, "Hydra");
  for (const double t : {10.0, 30.0, 20.0}) {
    ds.add({1, 4, 2, 64, t});
  }
  ds.add({2, 4, 2, 64, 15.0});
  const Instance inst{4, 2, 64};
  EXPECT_DOUBLE_EQ(ds.time_us(1, inst), 20.0);
  EXPECT_DOUBLE_EQ(ds.time_us(2, inst), 15.0);
  const auto best = ds.best(inst);
  EXPECT_EQ(best.uid, 2);
  EXPECT_DOUBLE_EQ(best.time_us, 15.0);
  EXPECT_FALSE(ds.has(3, inst));
  EXPECT_THROW(ds.time_us(3, inst), InvalidArgument);
}

TEST(Dataset, MessageSizesPastThirtyBitsKeepTheirOwnSamples) {
  Dataset ds("t", sim::MpiLib::kOpenMPI, sim::Collective::kBcast, "Hydra");
  ds.add({1, 2, 5, 64, 10.0});
  ds.add({1, 2, 1, (std::uint64_t{1} << 32) + 64, 1000.0});
  EXPECT_DOUBLE_EQ(ds.time_us(1, {2, 5, 64}), 10.0);
  EXPECT_DOUBLE_EQ(ds.time_us(1, {2, 1, (std::uint64_t{1} << 32) + 64}),
                   1000.0);
  EXPECT_FALSE(ds.has(1, {2, 1, 64}));
  EXPECT_EQ(ds.instances().size(), 2u);
}

TEST(Dataset, CopiesNeverReadEachOthersMedians) {
  Dataset a("t", sim::MpiLib::kOpenMPI, sim::Collective::kBcast, "Hydra");
  a.add({1, 1, 1, 64, 10.0});
  const Instance inst{1, 1, 64};
  Dataset b = a;
  b.add({1, 1, 1, 64, 30.0});
  b.add({1, 1, 1, 64, 40.0});
  // a reads its median first; b's must still come from b's samples.
  EXPECT_DOUBLE_EQ(a.time_us(1, inst), 10.0);
  EXPECT_DOUBLE_EQ(b.time_us(1, inst), 30.0);

  // Copy assignment, then divergence after both have been read.
  Dataset c("c", sim::MpiLib::kOpenMPI, sim::Collective::kBcast, "Hydra");
  c = b;
  EXPECT_DOUBLE_EQ(c.time_us(1, inst), 30.0);
  c.add({1, 1, 1, 64, 50.0});
  c.add({1, 1, 1, 64, 60.0});
  EXPECT_DOUBLE_EQ(b.time_us(1, inst), 30.0);
  EXPECT_DOUBLE_EQ(c.time_us(1, inst), 40.0);
  EXPECT_DOUBLE_EQ(a.time_us(1, inst), 10.0);

  const Dataset moved = std::move(c);
  EXPECT_DOUBLE_EQ(moved.time_us(1, inst), 40.0);
}

TEST(Dataset, IndexMatchesABruteForceScan) {
  // Rows out of uid order, uid 3 missing at one instance, and an exact
  // median tie between uids 2 and 4 that must go to uid 2.
  Dataset ds("t", sim::MpiLib::kOpenMPI, sim::Collective::kBcast, "Hydra");
  const std::vector<Record> rows = {
      {4, 8, 2, 1024, 7.0},  {2, 8, 2, 1024, 9.0}, {3, 8, 2, 1024, 8.0},
      {2, 8, 2, 1024, 5.0},  {4, 4, 1, 64, 3.0},   {2, 4, 1, 64, 3.0},
      {1, 4, 1, 64, 6.0},    {3, 4, 2, 64, 2.0},   {1, 8, 2, 1024, 9.5},
      {4, 4, 2, 64, 2.5},    {2, 4, 1, 64, 3.0},   {1, 4, 2, 64, 2.0},
  };
  for (const Record& r : rows) ds.add(r);

  std::set<int> uids;
  std::set<int> nodes;
  std::set<int> ppns;
  std::set<std::uint64_t> msizes;
  std::set<Instance> instances;
  for (const Record& r : ds.records()) {
    uids.insert(r.uid);
    nodes.insert(r.nodes);
    ppns.insert(r.ppn);
    msizes.insert(r.msize);
    instances.insert({r.nodes, r.ppn, r.msize});
  }
  EXPECT_EQ(ds.uids(), std::vector<int>(uids.begin(), uids.end()));
  EXPECT_EQ(ds.node_counts(), std::vector<int>(nodes.begin(), nodes.end()));
  EXPECT_EQ(ds.ppns(), std::vector<int>(ppns.begin(), ppns.end()));
  EXPECT_EQ(ds.msizes(),
            std::vector<std::uint64_t>(msizes.begin(), msizes.end()));
  EXPECT_EQ(ds.instances(),
            std::vector<Instance>(instances.begin(), instances.end()));
  EXPECT_FALSE(ds.has(3, {4, 1, 64}));

  for (const Instance& inst : instances) {
    // Brute force: the median of every uid's rows at `inst`, and the
    // strictly smallest in ascending uid order.
    int best_uid = 0;
    double best_time = 0.0;
    for (const int uid : uids) {
      std::vector<double> times;
      for (const Record& r : rows) {
        if (r.uid == uid && Instance{r.nodes, r.ppn, r.msize} == inst) {
          times.push_back(r.time_us);
        }
      }
      if (times.empty()) continue;
      const double med = support::median(times);
      if (best_uid == 0 || med < best_time) {
        best_uid = uid;
        best_time = med;
      }
    }
    const Dataset::Best best = ds.best(inst);
    EXPECT_EQ(best.uid, best_uid) << inst.nodes << "/" << inst.ppn;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(best.time_us),
              std::bit_cast<std::uint64_t>(best_time));
  }
  // The tie at (4, 1, 64): uids 2 and 4 both have median 3.0.
  EXPECT_EQ(ds.best({4, 1, 64}).uid, 2);
  EXPECT_EQ(ds.best({8, 2, 1024}).uid, 2);  // median(9, 5) = 7 = uid 4
  EXPECT_EQ(ds.best({4, 2, 64}).uid, 1);    // 2.0 ties uid 3, lowest wins
}

TEST(Dataset, CsvRoundTrip) {
  Dataset ds("t", sim::MpiLib::kIntelMPI, sim::Collective::kAllreduce,
             "Hydra");
  ds.add({1, 4, 2, 64, 12.5});
  ds.add({2, 8, 4, 1024, 99.25});
  const auto path =
      std::filesystem::temp_directory_path() / "mpicp_ds_test.csv";
  ds.save_csv(path);
  const Dataset loaded = Dataset::load_csv(
      path, "t", sim::MpiLib::kIntelMPI, sim::Collective::kAllreduce,
      "Hydra");
  EXPECT_EQ(loaded.num_records(), 2u);
  EXPECT_DOUBLE_EQ(loaded.time_us(2, {8, 4, 1024}), 99.25);
  std::filesystem::remove(path);
}

/// One seeded mutation of a CSV row: a byte flip, a truncation, an
/// extra or a missing separator, or one field replaced by an extreme
/// or malformed value.
void mutate_row(std::string& row, support::Xoshiro256& rng) {
  static const char* const kValues[] = {
      "inf", "-inf", "nan", "NaN", "1e300", "-1e300", "1e400", "-1", "-0",
      "0", "0.0", "+1", "0x10", "", " ", " 7 ", "1e-320", "4.9e-324", "1e9",
      "1000000000.0000001", "2147483647", "2147483648", "-2147483649", "--1",
      "9223372036854775807", "9223372036854775808", "18446744073709551615"};
  const auto pos = [&rng](const std::string& s) {
    return static_cast<std::size_t>(rng.uniform_int(s.size() + 1));
  };
  switch (rng.uniform_int(5)) {
    case 0:
      if (!row.empty()) {
        row[rng.uniform_int(row.size())] ^=
            static_cast<char>(1 + rng.uniform_int(255));
      }
      break;
    case 1:
      row.resize(pos(row));
      break;
    case 2:
      row.insert(pos(row), 1, ',');
      break;
    case 3:
      if (const auto c = row.find(',', pos(row)); c != row.npos) {
        row.erase(c, 1);
      }
      break;
    default: {
      std::vector<std::string> fields = support::split(row, ',');
      fields[rng.uniform_int(fields.size())] =
          kValues[rng.uniform_int(std::size(kValues))];
      row = support::join(fields, ",");
    }
  }
}

// Every mutated row classifies as a record validate_record accepts or as
// one quarantine reason, and never throws: the tolerant loader and
// StreamPipeline::push_row rely on this for untrusted rows.
TEST(Dataset, ClassifyRowSurvivesSeededMutationsOfD4Rows) {
  std::ifstream in(std::filesystem::path(MPICP_DATA_DIR) / "d4.csv");
  std::vector<std::string> rows;
  for (std::string line; std::getline(in, line);) rows.push_back(line);
  ASSERT_GT(rows.size(), 1000u);
  rows.erase(rows.begin());  // the header

  support::Xoshiro256 rng(20200914);
  std::map<std::string, int> verdicts;
  std::vector<std::string_view> cells;
  for (int i = 0; i < 20000; ++i) {
    std::string row = rows[rng.uniform_int(rows.size())];
    const int mutations = 1 + static_cast<int>(rng.uniform_int(3));
    for (int m = 0; m < mutations; ++m) mutate_row(row, rng);
    // As StreamPipeline::push_row reads a row: blank rows are skipped.
    const std::string_view trimmed = support::trim(row);
    if (trimmed.empty()) continue;
    support::split_views(trimmed, ',', cells);
    ClassifiedRow classified;
    ASSERT_NO_THROW(classified = classify_row(cells, {})) << row;
    if (classified.reason.empty()) {
      ASSERT_EQ(validate_record(classified.record), "") << row;
    } else {
      ASSERT_NE(std::find(std::begin(kQuarantineReasons),
                          std::end(kQuarantineReasons), classified.reason),
                std::end(kQuarantineReasons))
          << row << " -> " << classified.reason;
    }
    ++verdicts[classified.reason];
  }
  // The mutations reach every verdict, acceptance included.
  EXPECT_GT(verdicts[""], 0);
  for (const char* reason : kQuarantineReasons) {
    EXPECT_GT(verdicts[reason], 0) << reason;
  }
}

TEST(Specs, TableIIShape) {
  const auto& specs = all_dataset_specs();
  ASSERT_EQ(specs.size(), 8u);
  EXPECT_EQ(specs[0].name, "d1");
  EXPECT_EQ(specs[0].coll, sim::Collective::kBcast);
  EXPECT_EQ(specs[4].lib, sim::MpiLib::kIntelMPI);
  EXPECT_EQ(specs[7].machine, "SuperMUC-NG");
  EXPECT_EQ(specs[5].msizes.size(), 8u);  // alltoall: 8 sizes
  EXPECT_EQ(specs[0].msizes.size(), 10u);
  EXPECT_THROW(dataset_spec("d9"), InvalidArgument);
}

TEST(Specs, SplitsAreSubsetsOfGrids) {
  for (const auto& spec : all_dataset_specs()) {
    const NodeSplit split = node_split(spec.machine);
    for (const int n : split.train_full) {
      EXPECT_NE(std::find(spec.nodes.begin(), spec.nodes.end(), n),
                spec.nodes.end())
          << spec.name << " train node " << n;
    }
    for (const int n : split.test) {
      EXPECT_NE(std::find(spec.nodes.begin(), spec.nodes.end(), n),
                spec.nodes.end())
          << spec.name << " test node " << n;
    }
    // Train and test node sets must be disjoint.
    for (const int n : split.test) {
      EXPECT_EQ(std::find(split.train_full.begin(), split.train_full.end(),
                          n),
                split.train_full.end());
    }
  }
}

TEST(Generator, SmallSpecProducesFullGrid) {
  DatasetSpec spec = dataset_spec("d2");
  spec.name = "tiny";
  spec.nodes = {2, 3};
  spec.ppns = {1, 2};
  spec.msizes = {16, 1024};
  spec.budget = {.max_reps = 2, .budget_us = 1e9};
  const Dataset ds = generate_dataset(spec);
  const auto& configs =
      sim::algorithm_configs(spec.lib, spec.coll);
  EXPECT_EQ(ds.num_records(), configs.size() * 2 * 2 * 2 * 2);
  // Every instance has a best.
  for (const Instance& inst : ds.instances()) {
    EXPECT_GT(ds.best(inst).time_us, 0.0);
  }
}

TEST(Generator, DeterministicInSeed) {
  DatasetSpec spec = dataset_spec("d2");
  spec.nodes = {2};
  spec.ppns = {2};
  spec.msizes = {256};
  spec.budget = {.max_reps = 2, .budget_us = 1e9};
  const Dataset a = generate_dataset(spec);
  const Dataset b = generate_dataset(spec);
  ASSERT_EQ(a.num_records(), b.num_records());
  for (std::size_t i = 0; i < a.num_records(); ++i) {
    EXPECT_DOUBLE_EQ(a.records()[i].time_us, b.records()[i].time_us);
  }
}

/// A multi-allocation spec: 2 node counts x 2 ppns, every config.
DatasetSpec multi_allocation_spec() {
  DatasetSpec spec = dataset_spec("d2");
  spec.name = "multi";
  spec.nodes = {2, 3};
  spec.ppns = {1, 2};
  spec.msizes = {16, 1024, 65536};
  spec.budget = {.max_reps = 3, .budget_us = 1e9};
  return spec;
}

/// Same records in the same order, timings bit for bit.
void expect_same_records(const Dataset& a, const Dataset& b) {
  ASSERT_EQ(a.num_records(), b.num_records());
  for (std::size_t i = 0; i < a.num_records(); ++i) {
    const Record& ra = a.records()[i];
    const Record& rb = b.records()[i];
    EXPECT_EQ(ra.uid, rb.uid) << "record " << i;
    EXPECT_EQ(ra.nodes, rb.nodes) << "record " << i;
    EXPECT_EQ(ra.ppn, rb.ppn) << "record " << i;
    EXPECT_EQ(ra.msize, rb.msize) << "record " << i;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(ra.time_us),
              std::bit_cast<std::uint64_t>(rb.time_us))
        << "record " << i;
  }
}

// ---- the CSV loaders, row by row in file order ---------------------------

/// The message a reader sees, without the raise site ("[file:line]")
/// that the error macros append: it names source code, not the input.
std::string user_message(const std::string& what) {
  return what.substr(0, what.rfind(" ["));
}

/// One fixture file and what each loader must make of it. The tolerant
/// load ingests `records` and quarantines `quarantined` (line, reason),
/// both in file order; the strict load raises "<path><strict_error>" or,
/// when that is empty, ingests the same records.
struct LoadCase {
  std::string name;
  std::string text;
  std::vector<Record> records;
  std::string strict_error;
  std::vector<IngestReport::Sample> quarantined;
};

void expect_records(const std::vector<Record>& got,
                    const std::vector<Record>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].uid, want[i].uid) << "record " << i;
    EXPECT_EQ(got[i].nodes, want[i].nodes) << "record " << i;
    EXPECT_EQ(got[i].ppn, want[i].ppn) << "record " << i;
    EXPECT_EQ(got[i].msize, want[i].msize) << "record " << i;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(got[i].time_us),
              std::bit_cast<std::uint64_t>(want[i].time_us))
        << "record " << i;
  }
}

/// The ParseError message `load` raises, or "" when it returns.
template <typename Load>
std::string parse_error_of(Load load) {
  try {
    (void)load();
  } catch (const ParseError& e) {
    return user_message(e.what());
  }
  return "";
}

TEST(Dataset, LoadersPinEveryFixtureInFileOrder) {
  const std::string header = "uid,nodes,ppn,msize,time_us\n";
  std::string many_bad_cells;
  std::vector<IngestReport::Sample> many_bad_lines;
  for (int i = 0; i < 8; ++i) {
    many_bad_cells += "1,2,x" + std::to_string(i) + ",64,5\n";
    many_bad_lines.push_back({std::size_t(2 + i), "unparseable field"});
  }
  std::vector<IngestReport::Sample> ordering = many_bad_lines;
  ordering.insert(ordering.end(), {{11, "row width mismatch"},
                                   {12, "row width mismatch"},
                                   {13, "non-positive time"},
                                   {14, "row width mismatch"}});
  const LoadCase cases[] = {
      {"layout",
       header + "1,2,4,64,12.5\n\n  2 , 4,8 ,1024, 99.25  \r\n\r\n"
                "\t3,1,1,0,0.5\r\n   \n1,2,4,64,1e-3",
       {{1, 2, 4, 64, 12.5},
        {2, 4, 8, 1024, 99.25},
        {3, 1, 1, 0, 0.5},
        {1, 2, 4, 64, 1e-3}},
       "",
       {}},
      {"width",
       header + "1,2,4,64,12.5\n1,2,4,64\n2,2,4,64,7\n,\n",
       {{1, 2, 4, 64, 12.5}, {2, 2, 4, 64, 7.0}},
       ":3: row width mismatch",
       {{3, "row width mismatch"}, {5, "row width mismatch"}}},
      {"non_numeric",
       header + "1,2,4,64,12.5\n1,2,4,64,abc\n1,2x,4,64,3\n1,,4,64,3\n",
       {{1, 2, 4, 64, 12.5}},
       ":3: unparseable field",
       {{3, "unparseable field"},
        {4, "unparseable field"},
        {5, "unparseable field"}}},
      // The first bad key sits on file line 4, after a blank line.
      {"key_range",
       header + "1,2,4,64,12.5\n\n99999999999,2,4,64,3\n1,2,4,-1,3\n"
                "1,-3000000000,4,64,3\n",
       {{1, 2, 4, 64, 12.5}},
       ":4: bad configuration key",
       {{4, "bad configuration key"},
        {5, "bad configuration key"},
        {6, "bad configuration key"}}},
      {"bad_time",
       header + "1,2,4,64,12.5\n1,2,4,64,-2\n1,2,4,64,0\n1,2,4,64,nan\n"
                "1,2,4,64,inf\n1,2,4,64,1e12\n0,2,4,64,3\n",
       {{1, 2, 4, 64, 12.5}},
       ":3: non-positive time",
       {{3, "non-positive time"},
        {4, "non-positive time"},
        {5, "non-finite time"},
        {6, "non-finite time"},
        {7, "implausible time"},
        {8, "bad configuration key"}}},
      // Bad cells before misshapen rows: every loader reports the
      // first bad row first, whatever is wrong with it.
      {"ordering",
       header + many_bad_cells + "1,2,4,64,12.5\n1,2\n7,7,7,7,7,7\n"
                "1,2,4,64,-1\n1\n1,2,4,64,2\n",
       {{1, 2, 4, 64, 12.5}, {1, 2, 4, 64, 2.0}},
       ":2: unparseable field",
       ordering},
      {"reordered",
       "time_us,msize,note,ppn,nodes,uid\n"
       "12.5,64,a,4,2,1\n99.25,1024,,8,4,2\n",
       {{1, 2, 4, 64, 12.5}, {2, 4, 8, 1024, 99.25}},
       "",
       {}},
      {"header_only", header, {}, "", {}},
  };
  const auto dir = std::filesystem::temp_directory_path();
  for (const LoadCase& c : cases) {
    SCOPED_TRACE(c.name);
    const auto path = dir / ("mpicp_loaders_" + c.name + ".csv");
    {
      std::ofstream out(path, std::ios::binary);
      out << c.text;
    }
    const auto strict = [&] {
      return Dataset::load_csv(path, "csv", sim::MpiLib::kOpenMPI,
                               sim::Collective::kBcast, "Hydra");
    };
    if (c.strict_error.empty()) {
      expect_records(strict().records(), c.records);
    } else {
      EXPECT_EQ(parse_error_of(strict), path.string() + c.strict_error);
    }

    IngestReport report;
    const Dataset tolerant = Dataset::load_csv_tolerant(
        path, "csv", sim::MpiLib::kOpenMPI, sim::Collective::kBcast,
        "Hydra", &report);
    expect_records(tolerant.records(), c.records);
    EXPECT_EQ(report.rows_seen, c.records.size() + c.quarantined.size());
    EXPECT_EQ(report.rows_ingested, c.records.size());
    EXPECT_EQ(report.rows_quarantined, c.quarantined.size());
    std::map<std::string, std::size_t> reasons;
    for (const IngestReport::Sample& q : c.quarantined) ++reasons[q.reason];
    EXPECT_EQ(report.reasons, reasons);
    // The report keeps the first ten quarantined rows.
    const std::size_t kept = std::min<std::size_t>(c.quarantined.size(), 10);
    ASSERT_EQ(report.samples.size(), kept);
    for (std::size_t i = 0; i < kept; ++i) {
      EXPECT_EQ(report.samples[i].lineno, c.quarantined[i].lineno)
          << "sample " << i;
      EXPECT_EQ(report.samples[i].reason, c.quarantined[i].reason)
          << "sample " << i;
    }
    std::filesystem::remove(path);
  }

  // File-level failures throw the same error from both loaders.
  const std::pair<std::string, std::string> broken[] = {
      {"missing_column", "uid,nodes,msize,time_us\n1,2,64,12.5\n"},
      {"empty", ""},
      {"does_not_exist", ""},
  };
  for (const auto& [name, text] : broken) {
    SCOPED_TRACE(name);
    const auto path = dir / ("mpicp_loaders_" + name + ".csv");
    if (name != "does_not_exist") {
      std::ofstream out(path, std::ios::binary);
      out << text;
    }
    const std::string want =
        name == "missing_column" ? "CSV column 'ppn' not found"
        : name == "empty"        ? "CSV file " + path.string() + " is empty"
                                 : "cannot open CSV file " + path.string();
    EXPECT_EQ(parse_error_of([&] {
                return Dataset::load_csv(path, "csv", sim::MpiLib::kOpenMPI,
                                         sim::Collective::kBcast, "Hydra");
              }),
              want);
    EXPECT_EQ(parse_error_of([&] {
                return Dataset::load_csv_tolerant(
                    path, "csv", sim::MpiLib::kOpenMPI,
                    sim::Collective::kBcast, "Hydra");
              }),
              want);
    std::filesystem::remove(path);
  }
}

/// save_csv writes back the committed datasets byte for byte: the
/// header, the rows in file order and every timing at 17 digits.
TEST(Dataset, SaveCsvReproducesCommittedFilesByteForByte) {
  const auto read_bytes = [](const std::filesystem::path& path) {
    std::ifstream in(path, std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(in), {});
  };
  for (const std::string name : {"d4", "d6"}) {
    SCOPED_TRACE(name);
    const DatasetSpec spec = dataset_spec(name);
    const auto committed =
        std::filesystem::path(MPICP_DATA_DIR) / (name + ".csv");
    const auto saved = std::filesystem::temp_directory_path() /
                       ("mpicp_resave_" + name + ".csv");
    Dataset::load_csv(committed, name, spec.lib, spec.coll, spec.machine)
        .save_csv(saved);
    const std::string want = read_bytes(committed);
    ASSERT_GT(want.size(), 100000u);
    EXPECT_TRUE(read_bytes(saved) == want);
    std::filesystem::remove(saved);
  }
}

TEST(Generator, ParallelRecordsMatchSerialInOrder) {
  const DatasetSpec spec = multi_allocation_spec();
  const Dataset serial = [&] {
    const support::ScopedThreads scoped(1);
    return generate_dataset(spec);
  }();
  // The serial loop order: nodes, then ppn, then config, then msize.
  ASSERT_EQ(serial.records().front().nodes, 2);
  ASSERT_EQ(serial.records().front().ppn, 1);
  ASSERT_EQ(serial.records().back().nodes, 3);
  ASSERT_EQ(serial.records().back().ppn, 2);

  const support::ScopedThreads scoped(4);
  expect_same_records(serial, generate_dataset(spec));

  // Called from inside a parallel_for body, generation takes the nested
  // serial fallback and still yields the same records.
  std::vector<std::optional<Dataset>> nested(2);
  support::parallel_for(nested.size(), 1, [&](std::size_t i) {
    nested[i].emplace(generate_dataset(spec));
  });
  for (const std::optional<Dataset>& ds : nested) {
    ASSERT_TRUE(ds.has_value());
    expect_same_records(serial, *ds);
  }

  // Replayed with one executor per (nodes, ppn, config) task, as the
  // generator schedules them, each task simulates as many messages
  // serially as on pool workers.
  const auto& configs = sim::algorithm_configs(spec.lib, spec.coll);
  const auto messages_at = [&](int threads) {
    const support::ScopedThreads pinned(threads);
    std::vector<std::uint64_t> messages(spec.nodes.size() *
                                        spec.ppns.size() * configs.size());
    support::parallel_for(messages.size(), 1, [&](std::size_t t) {
      const std::size_t alloc = t / configs.size();
      const sim::Comm comm(spec.nodes[alloc / spec.ppns.size()],
                           spec.ppns[alloc % spec.ppns.size()]);
      sim::Network net(sim::machine_by_name(spec.machine), comm.nodes(),
                       comm.ppn());
      sim::Executor exec(net);
      for (const std::uint64_t m : spec.msizes) {
        messages[t] += exec.run(sim::build_algorithm(
                                    spec.lib, spec.coll,
                                    configs[t % configs.size()], comm, m,
                                    /*root=*/0, /*tracking=*/false)
                                    .programs)
                           .num_messages;
      }
    });
    return messages;
  };
  const std::vector<std::uint64_t> serial_messages = messages_at(1);
  EXPECT_EQ(std::count(serial_messages.begin(), serial_messages.end(), 0u),
            0);
  EXPECT_EQ(messages_at(4), serial_messages);
}

/// The committed CSVs are the simulator's own output, so regenerating
/// one of their multi-node, multi-ppn allocations must reproduce its
/// rows bit for bit: Jupiter (one rail) Allreduce and Hydra (two rails)
/// Alltoall.
TEST(Generator, RegeneratesCommittedAllocationBitForBit) {
  for (const std::string name : {"d4", "d6"}) {
    DatasetSpec spec = dataset_spec(name);
    const Dataset committed = Dataset::load_csv(
        std::filesystem::path(MPICP_DATA_DIR) / (name + ".csv"), name,
        spec.lib, spec.coll, spec.machine);
    spec.nodes = {7};
    spec.ppns = {8};
    Dataset expected(name, spec.lib, spec.coll, spec.machine);
    for (const Record& rec : committed.records()) {
      if (rec.nodes == 7 && rec.ppn == 8) expected.add(rec);
    }
    ASSERT_GT(expected.num_records(), 100u) << name;
    SCOPED_TRACE(name);
    expect_same_records(expected, generate_dataset(spec));
  }
}

TEST(Generator, ProgressRunsOnTheCallingThreadAndEndsAtTotal) {
  const DatasetSpec spec = multi_allocation_spec();
  const std::size_t total =
      spec.nodes.size() * spec.ppns.size() * spec.msizes.size() *
      sim::algorithm_configs(spec.lib, spec.coll).size();
  const support::ScopedThreads scoped(4);
  const auto caller = std::this_thread::get_id();
  std::atomic<int> foreign_calls{0};
  std::vector<std::pair<std::size_t, std::size_t>> calls;
  (void)generate_dataset(spec, [&](std::size_t done, std::size_t all) {
    if (std::this_thread::get_id() != caller) {
      ++foreign_calls;
      return;
    }
    calls.emplace_back(done, all);
  });
  EXPECT_EQ(foreign_calls.load(), 0);
  ASSERT_FALSE(calls.empty());
  for (std::size_t i = 0; i < calls.size(); ++i) {
    EXPECT_EQ(calls[i].second, total);
    EXPECT_LE(calls[i].first, total);
    if (i > 0) {
      EXPECT_GE(calls[i].first, calls[i - 1].first);
    }
  }
  EXPECT_EQ(calls.back(), std::make_pair(total, total));
}

TEST(Defaults, OpenMpiFixedRulesAreStable) {
  const auto logic = make_openmpi_default(sim::Collective::kBcast);
  EXPECT_EQ(logic->name(), "openmpi-fixed");
  const int small = logic->select_uid({8, 4, 64});
  const int large = logic->select_uid({8, 4, 4u << 20});
  EXPECT_NE(small, large);
  // Small messages: binomial family (alg 6 in the registry).
  const auto& cfg = sim::config_by_uid(sim::MpiLib::kOpenMPI,
                                       sim::Collective::kBcast, small);
  EXPECT_EQ(cfg.alg_id, 6);
}

TEST(Defaults, OpenMpiDecisionCoversAllCollectives) {
  for (const auto coll : {sim::Collective::kBcast,
                          sim::Collective::kAllreduce,
                          sim::Collective::kAlltoall}) {
    for (const std::uint64_t m : standard_msizes()) {
      for (const int p : {2, 16, 256, 1024}) {
        const int uid = sim::openmpi_default_uid(coll, p, m);
        EXPECT_NO_THROW(
            sim::config_by_uid(sim::MpiLib::kOpenMPI, coll, uid));
      }
    }
  }
}

TEST(Defaults, IntelTunedTablePicksGridBest) {
  Dataset ds("t", sim::MpiLib::kIntelMPI, sim::Collective::kAllreduce,
             "Hydra");
  // Two uids; uid 2 faster at (4, 2, 64), uid 1 faster at (4, 2, 1024).
  ds.add({1, 4, 2, 64, 20.0});
  ds.add({2, 4, 2, 64, 10.0});
  ds.add({1, 4, 2, 1024, 30.0});
  ds.add({2, 4, 2, 1024, 60.0});
  const auto logic = make_intel_default(ds, {4});
  EXPECT_EQ(logic->select_uid({4, 2, 64}), 2);
  EXPECT_EQ(logic->select_uid({4, 2, 1024}), 1);
  // Off-grid instances snap to the nearest grid point.
  EXPECT_EQ(logic->select_uid({5, 2, 100}), 2);
  EXPECT_EQ(logic->select_uid({7, 2, 2000}), 1);
}

}  // namespace
}  // namespace mpicp::bench
