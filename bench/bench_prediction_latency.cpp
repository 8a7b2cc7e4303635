// Prediction-latency harness: the operational costs the paper discusses
// in §II (offline selection must answer in seconds, online selection
// would need microseconds), measured as a reference-vs-compiled serving
// comparison plus the original google-benchmark microbenches.
//
// The comparison harness runs first: for each learner it fits a
// selector (which lowers its compiled bank) and times single-query
// argmin and whole-grid selection at one thread (the speedup is the
// engine's, not the pool's) on the compiled bank and on the interpreted
// reference — argmin_usable over Selector::predict_all, each model's
// own predict_one — verifying that every pick is identical. For the
// tree ensembles it also times the compiled grid argmin and the
// single-query argmin on off-grid instances (rank-cell tables) against
// the reference, and the KNN single-query argmin on off-grid instances
// drawn like the perfbench serve_offgrid workload. Every comparison is
// a hard gate on identical picks.
//
//   --smoke            comparison only (gam + knn, fewer reps, plus the
//                      xgboost/rf grid and off-grid rows), skip the
//                      google-benchmark microbenches — the CI mode
// Remaining arguments are passed through to google-benchmark.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <sstream>
#include <string>
#include <vector>

#include "collbench/dataset.hpp"
#include "simmpi/coll/registry.hpp"
#include "simmpi/executor.hpp"
#include "simnet/machine.hpp"
#include "support/parallel.hpp"
#include "support/rng.hpp"
#include "support/str.hpp"
#include "support/table.hpp"
#include "tune/compiled_bank.hpp"
#include "tune/selector.hpp"

namespace {

using namespace mpicp;

/// Synthetic dataset shaped like d2 (13 uids, Hydra-like grid) so the
/// microbenchmarks run without the cached CSVs.
bench::Dataset make_training_data() {
  bench::Dataset ds("synthetic", sim::MpiLib::kOpenMPI,
                    sim::Collective::kAllreduce, "Hydra");
  support::Xoshiro256 rng(99);
  const std::vector<int> nodes = {4, 8, 16, 20, 24, 32, 36};
  const std::vector<int> ppns = {1, 4, 8, 16, 32};
  const std::vector<std::uint64_t> msizes = {16,    1024,   16384,
                                             65536, 524288, 4194304};
  for (int uid = 1; uid <= 13; ++uid) {
    for (const int n : nodes) {
      for (const int ppn : ppns) {
        for (const std::uint64_t m : msizes) {
          const double p = n * ppn;
          const double t = 5.0 + 0.2 * uid * std::log2(p) +
                           (0.001 + 0.0002 * uid) *
                               static_cast<double>(m) / std::sqrt(p);
          for (int rep = 0; rep < 3; ++rep) {
            ds.add({uid, n, ppn, m, rng.lognormal_median(t, 0.05)});
          }
        }
      }
    }
  }
  return ds;
}

const bench::Dataset& training_data() {
  static const bench::Dataset ds = make_training_data();
  return ds;
}

void BM_SelectorFit(benchmark::State& state, const char* learner) {
  const bench::Dataset& ds = training_data();
  for (auto _ : state) {
    tune::Selector selector(tune::SelectorOptions{.learner = learner});
    benchmark::DoNotOptimize(selector.fit(ds, ds.node_counts()));
    benchmark::DoNotOptimize(selector.uids());
  }
}
BENCHMARK_CAPTURE(BM_SelectorFit, knn, "knn")->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_SelectorFit, gam, "gam")->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_SelectorFit, xgboost, "xgboost")
    ->Unit(benchmark::kMillisecond);

/// The front door: Selector::select_uid, served by the compiled bank.
void BM_SelectUid(benchmark::State& state, const char* learner) {
  const bench::Dataset& ds = training_data();
  tune::Selector selector(tune::SelectorOptions{.learner = learner});
  if (selector.fit(ds, ds.node_counts()).degraded()) {
    state.SkipWithError("selector fit degraded on synthetic data");
    return;
  }
  std::uint64_t m = 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(selector.select_uid({13, 16, m}));
    m = m < (1u << 22) ? m * 2 : 1;
  }
}
BENCHMARK_CAPTURE(BM_SelectUid, knn, "knn")->Unit(benchmark::kMicrosecond);
BENCHMARK_CAPTURE(BM_SelectUid, gam, "gam")->Unit(benchmark::kMicrosecond);
BENCHMARK_CAPTURE(BM_SelectUid, xgboost, "xgboost")
    ->Unit(benchmark::kMicrosecond);

void BM_SimulatorBcastBinomial(benchmark::State& state) {
  const int nodes = static_cast<int>(state.range(0));
  const sim::MachineDesc machine = sim::hydra_machine();
  const sim::Comm comm(nodes, 16);
  sim::Network net(machine, nodes, 16);
  sim::Executor exec(net);
  const auto& cfg = sim::algorithm_configs(sim::MpiLib::kOpenMPI,
                                           sim::Collective::kBcast)
                        .at(20 + 5);  // a segmented binomial config
  std::uint64_t messages = 0;
  for (auto _ : state) {
    auto built =
        sim::build_algorithm(sim::MpiLib::kOpenMPI, sim::Collective::kBcast,
                             cfg, comm, 1u << 20, 0, false);
    messages += exec.run(built.programs).num_messages;
  }
  state.counters["msgs/s"] = benchmark::Counter(
      static_cast<double>(messages), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_SimulatorBcastBinomial)
    ->Arg(8)
    ->Arg(32)
    ->Unit(benchmark::kMillisecond);

void BM_SimulatorAlltoallPairwise(benchmark::State& state) {
  const int nodes = static_cast<int>(state.range(0));
  const sim::MachineDesc machine = sim::hydra_machine();
  const sim::Comm comm(nodes, 8);
  sim::Network net(machine, nodes, 8);
  sim::Executor exec(net);
  const auto& configs = sim::algorithm_configs(sim::MpiLib::kIntelMPI,
                                               sim::Collective::kAlltoall);
  const auto& cfg = configs.at(2);  // pairwise
  std::uint64_t messages = 0;
  for (auto _ : state) {
    auto built = sim::build_algorithm(sim::MpiLib::kIntelMPI,
                                      sim::Collective::kAlltoall, cfg, comm,
                                      4096, 0, false);
    messages += exec.run(built.programs).num_messages;
  }
  state.counters["msgs/s"] = benchmark::Counter(
      static_cast<double>(messages), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_SimulatorAlltoallPairwise)
    ->Arg(8)
    ->Arg(24)
    ->Unit(benchmark::kMillisecond);

// ---------------------------------------------------------------------
// Reference vs compiled serving comparison.
// ---------------------------------------------------------------------

/// The interpreted reference pick: the argmin of Selector::predict_all,
/// or -1 when no prediction is usable.
int reference_pick(const tune::Selector& selector,
                   const bench::Instance& inst) {
  std::size_t excluded = 0;
  return tune::argmin_usable(selector.predict_all(inst), excluded);
}

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Query instances: the training grid plus extrapolated node counts —
/// the shape a SLURM-prolog tuning sweep asks for.
std::vector<bench::Instance> make_query_grid() {
  std::vector<bench::Instance> grid;
  const std::vector<int> nodes = {4, 8, 16, 20, 24, 32, 36, 40, 64};
  const std::vector<int> ppns = {1, 4, 8, 16, 32};
  const std::vector<std::uint64_t> msizes = {16,    1024,   16384,
                                             65536, 524288, 4194304};
  grid.reserve(nodes.size() * ppns.size() * msizes.size());
  for (const int n : nodes) {
    for (const int ppn : ppns) {
      for (const std::uint64_t m : msizes) {
        grid.push_back({n, ppn, m});
      }
    }
  }
  return grid;
}

struct ComparisonRow {
  std::string learner;
  double single_us_reference = 0.0;
  double single_us_compiled = 0.0;
  double grid_us_reference = 0.0;  // per instance
  double grid_us_compiled = 0.0;   // per instance
  bool picks_identical = true;

  double speedup_single() const {
    return single_us_reference / single_us_compiled;
  }
  double speedup_grid() const {
    return grid_us_reference / grid_us_compiled;
  }
};

ComparisonRow compare_serving(const std::string& learner, int repeats) {
  const bench::Dataset& ds = training_data();
  tune::Selector selector(tune::SelectorOptions{.learner = learner});
  (void)selector.fit(ds, ds.node_counts());
  const tune::CompiledBank& bank = selector.compile();
  const std::vector<bench::Instance> grid = make_query_grid();

  // One thread: what is measured is the engine, not the pool.
  support::ScopedThreads scoped(1);
  ComparisonRow row;
  row.learner = learner;
  row.single_us_reference = 1e300;
  row.single_us_compiled = 1e300;
  row.grid_us_reference = 1e300;
  row.grid_us_compiled = 1e300;

  std::vector<int> reference_picks(grid.size());
  std::vector<int> compiled_picks;
  for (int rep = 0; rep < repeats; ++rep) {
    auto start = Clock::now();
    for (std::size_t i = 0; i < grid.size(); ++i) {
      reference_picks[i] = reference_pick(selector, grid[i]);
    }
    row.grid_us_reference =
        std::min(row.grid_us_reference,
                 seconds_since(start) * 1e6 / grid.size());

    start = Clock::now();
    compiled_picks = bank.select_grid(grid);
    row.grid_us_compiled = std::min(
        row.grid_us_compiled, seconds_since(start) * 1e6 / grid.size());
    if (compiled_picks != reference_picks) row.picks_identical = false;

    // Single-query latency over a cycling instance, amortized.
    constexpr int kSingleIters = 64;
    start = Clock::now();
    for (int i = 0; i < kSingleIters; ++i) {
      (void)reference_pick(selector, grid[i % grid.size()]);
    }
    row.single_us_reference =
        std::min(row.single_us_reference,
                 seconds_since(start) * 1e6 / kSingleIters);

    start = Clock::now();
    for (int i = 0; i < kSingleIters; ++i) {
      if (bank.select_uid(grid[i % grid.size()]) !=
          reference_picks[i % grid.size()]) {
        row.picks_identical = false;
      }
    }
    row.single_us_compiled =
        std::min(row.single_us_compiled,
                 seconds_since(start) * 1e6 / kSingleIters);
  }
  return row;
}

/// Grid-argmin comparison for the tree-ensemble learners: the
/// per-instance interpreted reference against the compiled bank's
/// select_grid_into, p50/p99 per instance over repeated
/// full-grid passes at one thread.
struct TreeGridRow {
  std::string learner;
  double reference_p50_us = 0.0;
  double reference_p99_us = 0.0;
  double compiled_p50_us = 0.0;
  double compiled_p99_us = 0.0;
  bool picks_identical = true;

  double speedup() const { return reference_p50_us / compiled_p50_us; }
};

double percentile_of(std::vector<double>& samples, double p) {
  std::sort(samples.begin(), samples.end());
  const std::size_t idx = std::min(
      samples.size() - 1,
      static_cast<std::size_t>(p * static_cast<double>(samples.size())));
  return samples[idx];
}

TreeGridRow compare_tree_grid(const std::string& learner, int reps) {
  const bench::Dataset& ds = training_data();
  tune::Selector selector(tune::SelectorOptions{.learner = learner});
  (void)selector.fit(ds, ds.node_counts());
  const tune::CompiledBank& bank = selector.compile();
  const std::vector<bench::Instance> grid = make_query_grid();

  support::ScopedThreads scoped(1);
  TreeGridRow row;
  row.learner = learner;
  std::vector<double> reference_us(reps, 0.0);
  std::vector<double> compiled_us(reps, 0.0);
  std::vector<int> reference_picks(grid.size(), -1);
  std::vector<int> compiled_picks(grid.size(), -1);
  for (int rep = 0; rep < reps; ++rep) {
    auto start = Clock::now();
    for (std::size_t i = 0; i < grid.size(); ++i) {
      reference_picks[i] = reference_pick(selector, grid[i]);
    }
    reference_us[rep] = seconds_since(start) * 1e6 / grid.size();

    start = Clock::now();
    bank.select_grid_into(grid, compiled_picks);
    compiled_us[rep] = seconds_since(start) * 1e6 / grid.size();
    if (compiled_picks != reference_picks) row.picks_identical = false;
  }
  row.reference_p50_us = percentile_of(reference_us, 0.50);
  row.reference_p99_us = percentile_of(reference_us, 0.99);
  row.compiled_p50_us = percentile_of(compiled_us, 0.50);
  row.compiled_p99_us = percentile_of(compiled_us, 0.99);
  return row;
}

/// Single-query off-grid argmin for a tree-ensemble learner: the
/// compiled select_uid (one rank-cell lookup per model when the model
/// has a table) against the interpreted reference, best of `reps`
/// passes over byte-granular message sizes and node / ppn counts off
/// the training grid, at one thread. The compiled picks must equal the
/// reference ones.
struct OffgridRow {
  std::string learner;
  double single_us_reference = 1e300;
  double single_us_compiled = 1e300;
  bool picks_identical = true;

  double speedup() const {
    return single_us_reference / single_us_compiled;
  }
};

std::vector<bench::Instance> make_offgrid_stream(std::size_t count) {
  support::Xoshiro256 rng(1234);
  std::vector<bench::Instance> out;
  out.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    out.push_back({2 + static_cast<int>(rng.uniform_int(63)),
                   1 + static_cast<int>(rng.uniform_int(32)),
                   1 + rng.uniform_int(std::uint64_t{1} << 22)});
  }
  return out;
}

/// Off-grid instances drawn as the perfbench serve_offgrid workload
/// draws them: nodes in [2, 64], ppn in [1, 48], message sizes
/// log-uniform over [1 B, 4 MiB] at byte granularity.
std::vector<bench::Instance> make_serve_offgrid_stream(std::size_t count) {
  support::Xoshiro256 rng(4321);
  std::vector<bench::Instance> out;
  out.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    const int nodes = 2 + static_cast<int>(rng.uniform_int(63));
    const int ppn = 1 + static_cast<int>(rng.uniform_int(48));
    const double m = std::clamp(std::floor(std::exp2(22.0 * rng.uniform())),
                                1.0, 4194304.0);
    out.push_back({nodes, ppn, static_cast<std::uint64_t>(m)});
  }
  return out;
}

OffgridRow compare_offgrid_single(const std::string& learner, int reps,
                                  const std::vector<bench::Instance>& stream) {
  const bench::Dataset& ds = training_data();
  tune::Selector selector(tune::SelectorOptions{.learner = learner});
  (void)selector.fit(ds, ds.node_counts());
  const tune::CompiledBank& bank = selector.compile();

  support::ScopedThreads scoped(1);
  OffgridRow row;
  row.learner = learner;
  std::vector<int> expected(stream.size());
  std::vector<int> picks(stream.size());
  for (int rep = 0; rep < reps; ++rep) {
    auto start = Clock::now();
    for (std::size_t q = 0; q < stream.size(); ++q) {
      expected[q] = reference_pick(selector, stream[q]);
    }
    row.single_us_reference =
        std::min(row.single_us_reference,
                 seconds_since(start) * 1e6 / stream.size());

    start = Clock::now();
    for (std::size_t q = 0; q < stream.size(); ++q) {
      picks[q] = bank.select_uid(stream[q]);
    }
    row.single_us_compiled = std::min(
        row.single_us_compiled, seconds_since(start) * 1e6 / stream.size());
    if (picks != expected) row.picks_identical = false;
  }
  return row;
}

int run_comparison(bool smoke) {
  const std::vector<std::string> learners =
      smoke ? std::vector<std::string>{"gam", "knn"}
            : std::vector<std::string>{"gam",    "knn", "linear",
                                       "median", "rf",  "xgboost"};
  const int repeats = smoke ? 2 : 3;

  std::printf("reference vs compiled serving (1 thread, best of %d, "
              "%zu-instance grid)\n\n",
              repeats, make_query_grid().size());
  support::TextTable table({"learner", "single ref [us]",
                            "single compiled [us]", "speedup",
                            "grid/inst ref [us]",
                            "grid/inst compiled [us]", "speedup",
                            "picks identical"});
  bool all_identical = true;
  for (const std::string& learner : learners) {
    const ComparisonRow row = compare_serving(learner, repeats);
    all_identical = all_identical && row.picks_identical;
    table.add_row(
        {row.learner, support::format_double(row.single_us_reference, 2),
         support::format_double(row.single_us_compiled, 2),
         support::format_double(row.speedup_single(), 2),
         support::format_double(row.grid_us_reference, 2),
         support::format_double(row.grid_us_compiled, 2),
         support::format_double(row.speedup_grid(), 2),
         row.picks_identical ? "yes" : "NO"});
  }
  std::ostringstream os;
  table.print(os);
  std::fputs(os.str().c_str(), stdout);

  // Tree-ensemble grid argmin: the per-instance reference argmin vs
  // the compiled grid argmin; both must pick identically and the
  // compiled grid must clear 1.5x at p50.
  const int grid_reps = smoke ? 24 : 64;
  std::printf("\nGBT/RF grid argmin (1 thread, %d full-grid passes)\n\n",
              grid_reps);
  support::TextTable grid_table(
      {"learner", "reference p50 [us/inst]", "reference p99 [us/inst]",
       "compiled p50 [us/inst]", "compiled p99 [us/inst]", "p50 speedup",
       "picks identical"});
  bool grids_identical = true;
  double min_grid_speedup = 1e300;
  for (const char* learner : {"xgboost", "rf"}) {
    const TreeGridRow row = compare_tree_grid(learner, grid_reps);
    grids_identical = grids_identical && row.picks_identical;
    min_grid_speedup = std::min(min_grid_speedup, row.speedup());
    grid_table.add_row(
        {row.learner, support::format_double(row.reference_p50_us, 3),
         support::format_double(row.reference_p99_us, 3),
         support::format_double(row.compiled_p50_us, 3),
         support::format_double(row.compiled_p99_us, 3),
         support::format_double(row.speedup(), 2),
         row.picks_identical ? "yes" : "NO"});
  }
  std::ostringstream os_grid;
  grid_table.print(os_grid);
  std::fputs(os_grid.str().c_str(), stdout);

  const int offgrid_reps = smoke ? 3 : 8;
  std::printf("\nGBT/RF single-query off-grid argmin (1 thread, best of "
              "%d)\n\n",
              offgrid_reps);
  support::TextTable offgrid_table(
      {"learner", "reference [us]", "compiled [us]", "speedup",
       "picks identical"});
  bool offgrid_identical = true;
  for (const char* learner : {"xgboost", "rf"}) {
    const OffgridRow row = compare_offgrid_single(learner, offgrid_reps,
                                                  make_offgrid_stream(256));
    offgrid_identical = offgrid_identical && row.picks_identical;
    offgrid_table.add_row(
        {row.learner, support::format_double(row.single_us_reference, 3),
         support::format_double(row.single_us_compiled, 3),
         support::format_double(row.speedup(), 2),
         row.picks_identical ? "yes" : "NO"});
  }
  std::ostringstream os_offgrid;
  offgrid_table.print(os_offgrid);
  std::fputs(os_offgrid.str().c_str(), stdout);

  // KNN off the grid, drawn like the serve_offgrid workload: the
  // factored-grid search against the brute-force interpreted reference.
  std::printf("\nKNN single-query off-grid argmin, serve_offgrid draw "
              "(1 thread, best of %d)\n\n",
              offgrid_reps);
  const OffgridRow knn_row = compare_offgrid_single(
      "knn", offgrid_reps, make_serve_offgrid_stream(1024));
  support::TextTable knn_table({"learner", "reference [us]",
                                "compiled [us]", "speedup",
                                "picks identical"});
  knn_table.add_row(
      {knn_row.learner,
       support::format_double(knn_row.single_us_reference, 3),
       support::format_double(knn_row.single_us_compiled, 3),
       support::format_double(knn_row.speedup(), 2),
       knn_row.picks_identical ? "yes" : "NO"});
  std::ostringstream os_knn;
  knn_table.print(os_knn);
  std::fputs(os_knn.str().c_str(), stdout);

  if (!all_identical) {
    std::printf("\nFAIL: compiled picks differ from the interpreted "
                "reference\n");
    return 1;
  }
  std::printf("compiled picks bit-identical to reference: yes\n");
  if (!grids_identical) {
    std::printf("FAIL: GBT/RF compiled grid picks differ from the "
                "interpreted reference\n");
    return 1;
  }
  std::printf("GBT/RF compiled grid picks bit-identical to reference: "
              "yes\n");
  if (!offgrid_identical) {
    std::printf("FAIL: off-grid single-query picks differ from the "
                "interpreted reference\n");
    return 1;
  }
  std::printf("off-grid single-query picks bit-identical to "
              "reference: yes\n");
  if (!knn_row.picks_identical) {
    std::printf("FAIL: KNN off-grid picks differ from the interpreted "
                "reference\n");
    return 1;
  }
  std::printf("KNN off-grid picks bit-identical to reference: yes\n");
  if (min_grid_speedup < 1.5) {
    std::printf("FAIL: compiled grid argmin speedup %.2fx below the 1.5x "
                "gate\n",
                min_grid_speedup);
    return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  // Strip the harness flags; everything else goes to google-benchmark.
  bool smoke = false;
  std::vector<char*> bench_args;
  bench_args.reserve(static_cast<std::size_t>(argc));
  bench_args.push_back(argv[0]);
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else {
      bench_args.push_back(argv[i]);
    }
  }
  const int rc = run_comparison(smoke);
  if (rc != 0 || smoke) return rc;

  int bench_argc = static_cast<int>(bench_args.size());
  benchmark::Initialize(&bench_argc, bench_args.data());
  if (benchmark::ReportUnrecognizedArguments(bench_argc,
                                             bench_args.data())) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
