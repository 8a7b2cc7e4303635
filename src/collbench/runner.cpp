#include "collbench/runner.hpp"

#include <algorithm>

#include "simmpi/coll/types.hpp"

namespace mpicp::bench {

RunnerResult run_benchmark(sim::Executor& exec, sim::MpiLib lib,
                           sim::Collective coll, const sim::AlgoConfig& cfg,
                           std::uint64_t msize, const NoiseModel& noise,
                           const RunnerBudget& budget,
                           support::Xoshiro256& rng) {
  MPICP_REQUIRE(budget.max_reps >= 1 && budget.budget_us > 0.0,
                "empty benchmark budget");
  const sim::Network& net = exec.network();
  const sim::Comm comm(net.num_nodes(), net.ppn());
  sim::BuiltCollective built = sim::build_algorithm(
      lib, coll, cfg, comm, msize, /*root=*/0, /*tracking=*/false);
  RunnerResult result;
  result.des_time_us = exec.run(built.programs).makespan_us;
  result.true_time_us = noise.true_time_us(
      result.des_time_us, static_cast<std::uint64_t>(coll), cfg.uid,
      net.num_nodes(), net.ppn(), msize);

  // Budget rule (ReproMPI): stop after max_reps observations or when the
  // accumulated measured time exceeds the budget, whichever is first.
  // At least one observation is always taken.
  double spent = 0.0;
  for (int rep = 0; rep < budget.max_reps; ++rep) {
    const double obs = noise.observe_us(result.true_time_us, rng);
    result.observations_us.push_back(obs);
    spent += obs;
    if (spent >= budget.budget_us) break;
  }
  return result;
}

}  // namespace mpicp::bench
