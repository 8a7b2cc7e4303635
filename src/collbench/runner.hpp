// ReproMPI-style budgeted benchmark runner.
//
// The paper's key benchmarking requirement (§III.A) is a *predictable
// training time*: each configuration is measured until either a maximum
// repetition count or a time budget is exhausted, whichever comes first.
// This runner reproduces that scheme on top of the simulator: the DES
// provides the deterministic base time, the noise model the observation
// distribution, and the budget logic decides how many observations a
// configuration receives.
#pragma once

#include <cstdint>
#include <vector>

#include "collbench/noise.hpp"
#include "simmpi/coll/registry.hpp"
#include "simmpi/executor.hpp"

namespace mpicp::bench {

struct RunnerBudget {
  int max_reps = 5;          ///< cap on repetitions per configuration
  double budget_us = 1.0e6;  ///< wall-clock budget per configuration
};

struct RunnerResult {
  double des_time_us = 0.0;   ///< deterministic simulated time
  double true_time_us = 0.0;  ///< with the systematic machine factor
  std::vector<double> observations_us;
};

/// Benchmark one algorithm configuration on the network allocation of
/// `exec`, which the caller reuses across runs (one executor per
/// generation task). `rng` supplies the observation noise; the uid's
/// systematic factor comes from `noise`.
[[nodiscard]] RunnerResult run_benchmark(
    sim::Executor& exec, sim::MpiLib lib, sim::Collective coll,
    const sim::AlgoConfig& cfg, std::uint64_t msize,
    const NoiseModel& noise, const RunnerBudget& budget,
    support::Xoshiro256& rng);

}  // namespace mpicp::bench
