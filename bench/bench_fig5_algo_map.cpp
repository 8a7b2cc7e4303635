// Figure 5 — predicted algorithm (library algorithm id) per process
// configuration and message size for each regression learner (KNN, GAM,
// XGBoost); MPI_Bcast, Open MPI (modeled), Hydra.
//
// Paper shape: the learners produce visibly different maps and together
// exercise many distinct algorithms (not just one or two).
#include <iostream>
#include <set>

#include "bench_common.hpp"

int main() {
  using namespace mpicp;
  std::printf("Figure 5: predicted algorithm id per configuration "
              "(#nodes x ppn) and message size;\nMPI_Bcast, Open MPI "
              "(modeled), Hydra (d1)\n\n");
  const bench::Dataset ds = bench::load_dataset_cached("d1");
  const bench::NodeSplit split = bench::node_split(ds.machine());
  const std::vector<int> panel_nodes = {7, 19, 35};
  const auto ppns = ds.ppns();

  for (const std::string learner : {"knn", "gam", "xgboost"}) {
    tune::Selector selector(tune::SelectorOptions{.learner = learner});
    bench::fit_or_warn(selector, ds, split.train_full);

    std::printf("== learner: %s ==\n", learner.c_str());
    std::vector<std::string> header = {"msize [B]"};
    for (const int n : panel_nodes) {
      for (const int ppn : ppns) {
        char buf[16];
        std::snprintf(buf, sizeof buf, "%02dx%02d", n, ppn);
        header.emplace_back(buf);
      }
    }
    support::TextTable table(std::move(header));
    std::set<int> used_algs;
    for (const std::uint64_t m : ds.msizes()) {
      std::vector<std::string> row = {std::to_string(m)};
      for (const int n : panel_nodes) {
        for (const int ppn : ppns) {
          // Served by the compiled bank the fit lowered.
          const int uid = selector.select_uid({n, ppn, m});
          const auto& cfg =
              sim::config_by_uid(ds.lib(), ds.collective(), uid);
          used_algs.insert(cfg.alg_id);
          row.push_back(std::to_string(cfg.alg_id));
        }
      }
      table.add_row(std::move(row));
    }
    table.print(std::cout);
    std::printf("distinct algorithms used: %zu\n\n", used_algs.size());
  }
  return 0;
}
