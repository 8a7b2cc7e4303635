// Shared helpers for the table/figure reproduction harnesses.
#pragma once

#include <cstdio>
#include <memory>
#include <sstream>
#include <string>

#include "collbench/defaults.hpp"
#include "collbench/generator.hpp"
#include "support/str.hpp"
#include "support/table.hpp"
#include "tune/registry.hpp"
#include "tune/selector.hpp"

namespace mpicp::bench {

/// Fit a selector and surface — rather than silently drop — a degraded
/// bank. Benches run on clean generated datasets, so degradation is
/// worth a loud stderr note, but not worth aborting the figure. Not
/// [[nodiscard]]: this helper IS the report consumer; the return is a
/// convenience for callers that also want the details.
// mpicp-lint: allow(nodiscard-report)
inline const tune::FitReport& fit_or_warn(tune::Selector& selector,
                                          const Dataset& ds,
                                          const std::vector<int>& nodes) {
  const tune::FitReport& report = selector.fit(ds, nodes);
  if (report.degraded()) {
    std::fprintf(stderr,
                 "warning: selector fit degraded (%zu/%zu uids clean)\n",
                 report.uids_clean(), report.uids_total());
  }
  return report;
}

/// Load a Table II dataset from the data directory, generating (and
/// caching) it on first use. Generation of the large datasets takes
/// minutes; run examples/generate_datasets ahead of time to avoid it
/// inside a bench.
inline Dataset load_dataset_cached(const std::string& name) {
  const DatasetSpec& spec = dataset_spec(name);
  const auto dir = default_data_dir();
  const auto path = dir / (name + ".csv");
  if (!std::filesystem::exists(path)) {
    std::printf("[%s] cache %s missing — simulating the full benchmark "
                "grid (this can take minutes)...\n",
                name.c_str(), path.string().c_str());
    std::fflush(stdout);
  }
  return load_or_generate(spec, dir);
}

}  // namespace mpicp::bench

namespace mpicp::benchharness {

/// Shared driver of the Figure 4/6/7/8 panels: fit a selector on the
/// machine's full training split, then print, for every (test node, ppn)
/// panel and message size, the running times of the exhaustive best, the
/// library default and the prediction, normalized to the best (the
/// paper's y axis).
inline void print_strategy_comparison(const std::string& dataset_name,
                                      const std::string& learner,
                                      const std::vector<int>& panel_nodes,
                                      const std::vector<int>& panel_ppns) {
  using namespace mpicp;
  const bench::Dataset ds = bench::load_dataset_cached(dataset_name);
  const bench::NodeSplit split = bench::node_split(ds.machine());

  tune::Selector selector(tune::SelectorOptions{.learner = learner});
  fit_or_warn(selector, ds, split.train_full);
  const auto default_logic = bench::make_default_for(ds);

  // Serve the figure grids the way production would: publish a copy of
  // the bank the fit lowered into a registry keyed by (machine,
  // collective).
  tune::BankRegistry registry;
  const tune::BankKey bank_key{ds.machine(), ds.collective()};
  registry.publish(bank_key,
                   std::make_shared<const tune::CompiledBank>(
                       selector.compile()));

  std::printf("strategies: Exhaustive Search (Best) / Default (%s) / "
              "Prediction (%s)\n\n",
              default_logic->name().c_str(), learner.c_str());
  const std::vector<std::uint64_t> msizes = ds.msizes();
  for (const int n : panel_nodes) {
    for (const int ppn : panel_ppns) {
      std::printf("--- nodes: %d, ppn: %d ---\n", n, ppn);
      support::TextTable table({"msize [B]", "best [us]", "norm best",
                                "norm default", "norm prediction",
                                "best uid", "default uid", "pred uid"});
      std::vector<bench::Instance> grid;
      grid.reserve(msizes.size());
      for (const std::uint64_t m : msizes) grid.push_back({n, ppn, m});
      const std::vector<int> pred_uids =
          registry.select_grid(bank_key, grid);
      for (std::size_t i = 0; i < grid.size(); ++i) {
        const bench::Instance& inst = grid[i];
        const auto best = ds.best(inst);
        const int uid_def = default_logic->select_uid(inst);
        const int uid_pred = pred_uids[i];
        const double t_def = ds.time_us(uid_def, inst);
        const double t_pred = ds.time_us(uid_pred, inst);
        table.add_row({std::to_string(inst.msize),
                       support::format_double(best.time_us, 5), "1.000",
                       support::format_double(t_def / best.time_us, 4),
                       support::format_double(t_pred / best.time_us, 4),
                       std::to_string(best.uid), std::to_string(uid_def),
                       std::to_string(uid_pred)});
      }
      std::ostringstream os;
      table.print(os);
      std::fputs(os.str().c_str(), stdout);
      std::printf("\n");
    }
  }
}

}  // namespace mpicp::benchharness
