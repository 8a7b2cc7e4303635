// Serial-vs-parallel wall-clock of the reproduce path on a Bcast
// dataset: generating the trimmed default grid with the DES
// (bench::generate_dataset), replaying that grid through the program
// builders and the executor to count simulated messages (DES
// messages/s and runs/s), fitting one regression model per algorithm
// configuration uid (Selector::fit, which ends by lowering the compiled
// bank) and answering the argmin queries with that bank's select_grid
// (parallel over the queries). Prints the speedup of the
// support/parallel layer and asserts the determinism contract:
// the generated datasets, the simulated message counts and the
// selected uids must be identical at every thread count.
//
//   --dataset=<name>   Table II dataset to train on (cached under data/;
//                      default: a trimmed d1 grid generated in-process,
//                      about half a minute on one core)
//   --learner=<name>   regressor (default xgboost — the heaviest fit)
//   --threads=<n>      parallel thread count (default 4; serial is
//                      always measured as the baseline; generation and
//                      the DES replay are timed once per thread count,
//                      and only for the default grid)
//   --repeats=<n>      timing repetitions, best-of (default 3)
#include <algorithm>
#include <bit>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "bench_common.hpp"
#include "collbench/generator.hpp"
#include "collbench/specs.hpp"
#include "simmpi/coll/registry.hpp"
#include "simmpi/executor.hpp"
#include "simnet/machine.hpp"
#include "support/cli.hpp"
#include "support/parallel.hpp"
#include "support/table.hpp"

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// A d1-shaped (Open MPI Bcast on Hydra) grid small enough to generate
/// in-process but with the full algorithm configuration bank, so the
/// per-uid fan-out matches a real training run.
mpicp::bench::DatasetSpec default_spec() {
  mpicp::bench::DatasetSpec spec = mpicp::bench::dataset_spec("d1");
  spec.name = "d1-trimmed";
  spec.nodes = {4, 8, 16, 32};
  spec.ppns = {1, 8, 16};
  spec.budget = {.max_reps = 3, .budget_us = 1.0e6};
  return spec;
}

struct TimedGeneration {
  double seconds = 0.0;
  mpicp::bench::Dataset ds;
};

TimedGeneration generate_at(int threads,
                            const mpicp::bench::DatasetSpec& spec) {
  mpicp::support::ScopedThreads scope(threads);
  const auto start = Clock::now();
  mpicp::bench::Dataset ds = mpicp::bench::generate_dataset(spec);
  return {seconds_since(start), std::move(ds)};
}

struct DesReplay {
  double seconds = 0.0;
  std::uint64_t runs = 0;
  std::uint64_t messages = 0;
};

/// Replays the grid's DES runs (build_algorithm + Executor::run) the
/// way the generator schedules them, one task and one executor per
/// (n, ppn, config), and counts the simulated messages, which
/// generate_dataset does not report.
DesReplay replay_des_at(int threads, const mpicp::bench::DatasetSpec& spec) {
  using namespace mpicp;
  support::ScopedThreads scope(threads);
  const sim::MachineDesc machine = sim::machine_by_name(spec.machine);
  const auto& configs = sim::algorithm_configs(spec.lib, spec.coll);
  const std::size_t num_cfg = configs.size();
  const std::size_t num_ppn = spec.ppns.size();
  std::vector<std::uint64_t> messages(spec.nodes.size() * num_ppn *
                                      num_cfg);
  const auto start = Clock::now();
  support::parallel_for(messages.size(), 1, [&](std::size_t t) {
    const int n = spec.nodes[t / (num_ppn * num_cfg)];
    const int ppn = spec.ppns[(t / num_cfg) % num_ppn];
    sim::Network net(machine, n, ppn);
    sim::Executor exec(net);
    const sim::Comm comm(n, ppn);
    for (const std::uint64_t m : spec.msizes) {
      const sim::BuiltCollective built =
          sim::build_algorithm(spec.lib, spec.coll, configs[t % num_cfg],
                               comm, m, /*root=*/0, /*tracking=*/false);
      messages[t] += exec.run(built.programs).num_messages;
    }
  });
  DesReplay out;
  out.seconds = seconds_since(start);
  out.runs = messages.size() * spec.msizes.size();
  for (const std::uint64_t m : messages) out.messages += m;
  return out;
}

/// Same records in the same order, timings bit for bit.
bool same_records(const mpicp::bench::Dataset& a,
                  const mpicp::bench::Dataset& b) {
  return std::equal(
      a.records().begin(), a.records().end(), b.records().begin(),
      b.records().end(),
      [](const mpicp::bench::Record& x, const mpicp::bench::Record& y) {
        return x.uid == y.uid && x.nodes == y.nodes && x.ppn == y.ppn &&
               x.msize == y.msize &&
               std::bit_cast<std::uint64_t>(x.time_us) ==
                   std::bit_cast<std::uint64_t>(y.time_us);
      });
}

struct TimedRun {
  double fit_s = 0.0;
  double predict_s = 0.0;
  std::vector<int> selected;
};

TimedRun run_at(int threads, const mpicp::bench::Dataset& ds,
                const std::vector<int>& train_nodes,
                const std::vector<mpicp::bench::Instance>& queries,
                const std::string& learner, int repeats) {
  mpicp::support::ScopedThreads scope(threads);
  TimedRun out;
  out.fit_s = 1e300;
  out.predict_s = 1e300;
  for (int rep = 0; rep < repeats; ++rep) {
    mpicp::tune::Selector selector(
        mpicp::tune::SelectorOptions{.learner = learner});
    auto start = Clock::now();
    // Timed region: the report is deliberately dropped — fit health on
    // this clean synthetic grid is covered by the unit suite.
    (void)selector.fit(ds, train_nodes);
    out.fit_s = std::min(out.fit_s, seconds_since(start));

    start = Clock::now();
    std::vector<int> selected = selector.compile().select_grid(queries);
    out.predict_s = std::min(out.predict_s, seconds_since(start));
    out.selected = std::move(selected);
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace mpicp;
  const support::CliParser cli(argc, argv);
  const std::string learner = cli.get("learner", "xgboost");
  const int threads = static_cast<int>(cli.get_int("threads", 4));
  const int repeats =
      std::max(1, static_cast<int>(cli.get_int("repeats", 3)));
  const std::string dataset_name = cli.get("dataset", "");

  // The default grid is generated at both thread counts; a named
  // dataset comes from the cache and skips the generation timing.
  std::optional<TimedGeneration> gen_serial;
  std::optional<TimedGeneration> gen_parallel;
  std::optional<DesReplay> des_serial;
  std::optional<DesReplay> des_parallel;
  if (dataset_name.empty()) {
    gen_serial = generate_at(1, default_spec());
    gen_parallel = generate_at(threads, default_spec());
    des_serial = replay_des_at(1, default_spec());
    des_parallel = replay_des_at(threads, default_spec());
  }
  const bench::Dataset ds = gen_parallel
                                ? gen_parallel->ds
                                : bench::load_dataset_cached(dataset_name);
  const std::vector<int> all_nodes = ds.node_counts();
  // Hold out the largest node count as the query set, train on the rest
  // (the paper's extrapolation-to-unseen-nodes split).
  const std::vector<int> train_nodes(all_nodes.begin(),
                                     all_nodes.end() - 1);
  std::vector<bench::Instance> queries;
  for (const bench::Instance& inst : ds.instances()) {
    if (inst.nodes == all_nodes.back()) queries.push_back(inst);
  }

  std::printf("dataset: %s (%zu records, %zu uids, %zu queries)\n",
              ds.name().c_str(), ds.num_records(), ds.uids().size(),
              queries.size());
  std::printf("learner: %s, hardware threads: %d, best of %d\n\n",
              learner.c_str(), support::hardware_threads(), repeats);

  const TimedRun serial =
      run_at(1, ds, train_nodes, queries, learner, repeats);
  const TimedRun parallel =
      run_at(threads, ds, train_nodes, queries, learner, repeats);

  support::TextTable table({"phase", "serial [s]",
                            "parallel [s] (t=" + std::to_string(threads) +
                                ")",
                            "speedup"});
  if (gen_serial) {
    table.add_row(
        {"generate dataset", support::format_double(gen_serial->seconds, 4),
         support::format_double(gen_parallel->seconds, 4),
         support::format_double(
             gen_serial->seconds / gen_parallel->seconds, 3)});
  }
  if (des_serial) {
    table.add_row({"DES replay (build + run)",
                   support::format_double(des_serial->seconds, 4),
                   support::format_double(des_parallel->seconds, 4),
                   support::format_double(
                       des_serial->seconds / des_parallel->seconds, 3)});
  }
  table.add_row({"fit model bank", support::format_double(serial.fit_s, 4),
                 support::format_double(parallel.fit_s, 4),
                 support::format_double(serial.fit_s / parallel.fit_s, 3)});
  table.add_row(
      {"argmin queries", support::format_double(serial.predict_s, 4),
       support::format_double(parallel.predict_s, 4),
       support::format_double(serial.predict_s / parallel.predict_s, 3)});
  std::ostringstream os;
  table.print(os);
  std::fputs(os.str().c_str(), stdout);
  if (des_serial) {
    const double msgs = static_cast<double>(des_serial->messages);
    std::printf("DES replay: %llu runs, %.0f simulated messages; "
                "%.4g / %.4g messages/s at 1 / %d threads\n",
                static_cast<unsigned long long>(des_serial->runs), msgs,
                msgs / des_serial->seconds, msgs / des_parallel->seconds,
                threads);
  }

  if (gen_serial && !same_records(gen_serial->ds, gen_parallel->ds)) {
    std::printf("\nFAIL: generated datasets differ between thread counts\n");
    return 1;
  }
  if (des_serial && des_serial->messages != des_parallel->messages) {
    std::printf("\nFAIL: DES message counts differ between thread counts\n");
    return 1;
  }
  if (serial.selected != parallel.selected) {
    std::printf("\nFAIL: selected uids differ between thread counts\n");
    return 1;
  }
  if (gen_serial) {
    std::printf("\ngenerated records bit-identical across thread counts: "
                "yes");
  }
  std::printf("\nselected uids bit-identical across thread counts: yes\n");
  return 0;
}
