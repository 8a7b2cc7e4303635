// Extension bench — online (STAR-MPI-style) vs. offline (this paper)
// selection: an application issues a stream of collective calls on a
// handful of instances; the online tuner pays exploration cost on the
// first calls, the offline selector uses its pre-trained models (the
// compiled bank its fit lowered) from call one. Reports cumulative
// communication time relative to always running the empirically best
// algorithm (oracle).
#include <iostream>

#include "bench_common.hpp"
#include "collbench/noise.hpp"
#include "support/rng.hpp"
#include "tune/evaluator.hpp"
#include "tune/online.hpp"

int main(int argc, char** argv) {
  using namespace mpicp;
  const std::string dataset = argc > 1 ? argv[1] : "d2";
  const int calls_per_instance = argc > 2 ? std::atoi(argv[2]) : 200;
  const bench::Dataset ds = bench::load_dataset_cached(dataset);
  const bench::NodeSplit split = bench::node_split(ds.machine());
  const bench::DatasetSpec& spec = bench::dataset_spec(dataset);
  const bench::NoiseModel noise(spec.seed);
  support::Xoshiro256 rng(2024);

  // The "application": all held-out instances at one ppn, each called
  // `calls_per_instance` times.
  std::vector<bench::Instance> workload;
  for (const bench::Instance& inst : ds.instances()) {
    if (std::find(split.test.begin(), split.test.end(), inst.nodes) !=
            split.test.end() &&
        inst.ppn == ds.ppns()[ds.ppns().size() / 2]) {
      workload.push_back(inst);
    }
  }

  tune::Selector offline(tune::SelectorOptions{.learner = "gam"});
  bench::fit_or_warn(offline, ds, split.train_full);
  tune::OnlineSelector online(
      {.candidate_uids = ds.uids(), .probes_per_algorithm = 2});

  // A call of uid on inst "costs" a noisy draw around the measured time.
  const auto call_cost = [&](const bench::Instance& inst, int uid) {
    return noise.observe_us(ds.time_us(uid, inst), rng);
  };

  double total_oracle = 0.0;
  double total_online = 0.0;
  double total_offline = 0.0;
  double total_default = 0.0;
  const auto default_logic = bench::make_default_for(ds);
  for (const bench::Instance& inst : workload) {
    const int best_uid = ds.best(inst).uid;
    const int off_uid = offline.select_uid(inst);
    const int def_uid = default_logic->select_uid(inst);
    for (int call = 0; call < calls_per_instance; ++call) {
      total_oracle += call_cost(inst, best_uid);
      total_offline += call_cost(inst, off_uid);
      total_default += call_cost(inst, def_uid);
      const int on_uid = online.next_uid(inst);
      const double t = call_cost(inst, on_uid);
      online.record(inst, on_uid, t);
      total_online += t;
    }
  }

  std::printf("Online vs offline selection, dataset %s, %zu instances x "
              "%d calls\n\n",
              dataset.c_str(), workload.size(), calls_per_instance);
  support::TextTable table({"strategy", "total time [s]", "vs oracle"});
  const auto row = [&](const char* name, double total) {
    table.add_row({name, support::format_double(total * 1e-6, 5),
                   support::format_double(total / total_oracle, 4)});
  };
  row("oracle (always best)", total_oracle);
  row("offline prediction (paper)", total_offline);
  row("online probing (STAR-MPI-like)", total_online);
  row("library default", total_default);
  std::ostringstream os;
  table.print(os);
  std::fputs(os.str().c_str(), stdout);
  std::printf(
      "\n(Online probing must first try every candidate; with %zu "
      "configurations the exploration phase dominates short runs.)\n",
      ds.uids().size());
  return 0;
}
