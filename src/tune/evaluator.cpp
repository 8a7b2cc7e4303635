#include "tune/evaluator.hpp"

#include <algorithm>
#include <cmath>

#include "collbench/specs.hpp"
#include "support/error.hpp"
#include "support/metrics.hpp"
#include "support/parallel.hpp"
#include "support/stats.hpp"
#include "support/trace.hpp"
#include "tune/compiled_bank.hpp"

namespace mpicp::tune {

Evaluation evaluate(const bench::Dataset& ds, const Selector& selector,
                    const bench::DefaultLogic& default_logic,
                    const std::vector<int>& test_nodes) {
  MPICP_SPAN("evaluate");
  std::vector<int> sorted_nodes(test_nodes);
  std::sort(sorted_nodes.begin(), sorted_nodes.end());
  std::vector<bench::Instance> instances;
  instances.reserve(ds.instances().size());
  for (const bench::Instance& inst : ds.instances()) {
    if (std::binary_search(sorted_nodes.begin(), sorted_nodes.end(),
                           inst.nodes)) {
      instances.push_back(inst);
    }
  }
  MPICP_REQUIRE(!instances.empty(), "no test instances found");
  static support::metrics::Counter& calls =
      support::metrics::counter("evaluate.calls");
  static support::metrics::Counter& evaluated =
      support::metrics::counter("evaluate.instances");
  calls.inc();
  evaluated.inc(instances.size());

  // Selection runs on the selector's compiled bank, lowered once at fit
  // or load; the batched argmin parallelizes over instances.
  const std::vector<int> picked = selector.compile().select_grid(instances);

  // Each instance is scored independently against the three strategies;
  // rows are preallocated so the parallel fill is order-independent.
  Evaluation eval;
  eval.rows.resize(instances.size());
  support::parallel_for(instances.size(), 1, [&](std::size_t i) {
    MPICP_SPAN("evaluate.instance");
    const bench::Instance& inst = instances[i];
    EvalRow row;
    row.inst = inst;
    const bench::Dataset::Best best = ds.best(inst);
    row.best_uid = best.uid;
    row.t_best_us = best.time_us;
    row.default_uid = default_logic.select_uid(inst);
    row.t_default_us = ds.time_us(row.default_uid, inst);
    row.predicted_uid = picked[i];
    row.t_predicted_us = ds.time_us(row.predicted_uid, inst);
    eval.rows[i] = row;
  });

  std::vector<double> speedups;
  std::vector<double> norm_def;
  std::vector<double> norm_pred;
  speedups.reserve(eval.rows.size());
  norm_def.reserve(eval.rows.size());
  norm_pred.reserve(eval.rows.size());
  std::size_t optimal = 0;
  for (const EvalRow& row : eval.rows) {
    speedups.push_back(row.speedup());
    norm_def.push_back(row.norm_default());
    norm_pred.push_back(row.norm_predicted());
    optimal += row.predicted_uid == row.best_uid ? 1 : 0;
  }
  eval.summary.num_instances = eval.rows.size();
  eval.summary.mean_speedup = support::mean(speedups);
  eval.summary.geomean_speedup = support::geomean(speedups);
  eval.summary.mean_norm_default = support::mean(norm_def);
  eval.summary.mean_norm_predicted = support::mean(norm_pred);
  eval.summary.fraction_optimal =
      static_cast<double>(optimal) / static_cast<double>(eval.rows.size());
  return eval;
}

Evaluation run_split_evaluation(const bench::Dataset& ds,
                                const std::string& learner,
                                bool small_training_set) {
  const bench::NodeSplit split = bench::node_split(ds.machine());
  Selector selector(SelectorOptions{.learner = learner});
  const FitReport& fit_report = selector.fit(
      ds, small_training_set ? split.train_small : split.train_full);
  const auto default_logic = bench::make_default_for(ds);
  Evaluation eval = evaluate(ds, selector, *default_logic, split.test);
  eval.fit_report = fit_report;
  return eval;
}

}  // namespace mpicp::tune
