#include "collbench/generator.hpp"

#include <atomic>
#include <cstdlib>
#include <thread>
#include <vector>

#include "simmpi/executor.hpp"
#include "simnet/machine.hpp"
#include "support/parallel.hpp"
#include "support/rng.hpp"

namespace mpicp::bench {

Dataset generate_dataset(const DatasetSpec& spec,
                         const ProgressFn& progress) {
  const sim::MachineDesc machine = sim::machine_by_name(spec.machine);
  const NoiseModel noise(spec.seed);
  const auto& configs = sim::algorithm_configs(spec.lib, spec.coll);

  // One task per (n, ppn, config), numbered in the serial loop order
  // n-major, then ppn, then config. Each task owns its network, the
  // executor all its message sizes run on, and its observation stream,
  // seeded from (seed, uid, n, ppn) alone, so its records do not depend
  // on which thread runs it or when; merging the per-task slots in
  // index order reproduces the serial record order.
  const std::size_t num_cfg = configs.size();
  const std::size_t num_ppn = spec.ppns.size();
  const std::size_t tasks = spec.nodes.size() * num_ppn * num_cfg;
  const std::size_t total = tasks * spec.msizes.size();
  std::vector<std::vector<Record>> slots(tasks);
  std::atomic<std::size_t> done{0};
  const auto caller = std::this_thread::get_id();
  support::parallel_for(tasks, 1, [&](std::size_t i) {
    // Hand out the largest allocations first (the Table II node and
    // ppn lists ascend), so the longest tasks do not straggle at the
    // tail of the region.
    const std::size_t t = tasks - 1 - i;
    const int n = spec.nodes[t / (num_ppn * num_cfg)];
    const int ppn = spec.ppns[(t / num_cfg) % num_ppn];
    const sim::AlgoConfig& cfg = configs[t % num_cfg];
    sim::Network net(machine, n, ppn);
    sim::Executor exec(net);
    support::Xoshiro256 rng(support::hash_combine(
        {spec.seed, static_cast<std::uint64_t>(cfg.uid),
         static_cast<std::uint64_t>(n), static_cast<std::uint64_t>(ppn)}));
    std::vector<Record>& out = slots[t];
    for (const std::uint64_t m : spec.msizes) {
      const RunnerResult res = run_benchmark(
          exec, spec.lib, spec.coll, cfg, m, noise, spec.budget, rng);
      for (const double obs : res.observations_us) {
        out.push_back({cfg.uid, n, ppn, m, obs});
      }
    }
    done += spec.msizes.size();
    // The callback runs on the calling thread only (it takes part in
    // the region), and successive loads there never go backwards.
    if (progress && std::this_thread::get_id() == caller) {
      progress(done.load(), total);
    }
  });

  Dataset ds(spec.name, spec.lib, spec.coll, spec.machine);
  for (const std::vector<Record>& slot : slots) {
    for (const Record& rec : slot) ds.add(rec);
  }
  if (progress) progress(total, total);
  return ds;
}

Dataset load_or_generate(const DatasetSpec& spec,
                         const std::filesystem::path& data_dir,
                         const ProgressFn& progress) {
  const std::filesystem::path path = data_dir / (spec.name + ".csv");
  if (std::filesystem::exists(path)) {
    return Dataset::load_csv(path, spec.name, spec.lib, spec.coll,
                             spec.machine);
  }
  Dataset ds = generate_dataset(spec, progress);
  ds.save_csv(path);
  return ds;
}

std::filesystem::path default_data_dir() {
  if (const char* env = std::getenv("MPICP_DATA_DIR")) return env;
  return "data";
}

}  // namespace mpicp::bench
