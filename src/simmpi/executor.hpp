// Discrete-event execution of per-rank communication programs.
//
// The executor advances every rank through its program, resolving MPI
// point-to-point matching ((source, tag) FIFO, non-overtaking), the
// eager/rendezvous protocol switch, and network resource contention via
// simnet::Network. The completion time of the collective is the maximum
// finish time over all ranks — the same "last process leaves" semantics
// ReproMPI measures with synchronized clocks.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "simmpi/datacheck.hpp"
#include "simmpi/program.hpp"
#include "simnet/network.hpp"

namespace mpicp::sim {

/// Outcome of executing one ProgramSet.
struct ExecResult {
  double makespan_us = 0.0;            ///< max finish time over ranks
  std::vector<double> finish_us;       ///< per-rank finish times
  std::uint64_t num_messages = 0;      ///< point-to-point messages sent
};

/// Executes program sets against a network.
///
/// Reuse contract: one Executor serves any number of run() calls on its
/// network. It owns the run state (record and message pools, the match
/// table, the event heap and the per-rank state) and clears it at the
/// start of every run, including a run that follows one that threw. Only
/// capacity carries over, so a result never depends on earlier runs and
/// a sequence of runs allocates almost nothing after the first. Each
/// run() also resets the network's resource state.
///
/// An Executor is not thread-safe: use one per thread. Dataset
/// generation gives each (n, ppn, config) task its own network and
/// executor, shared by that task's message sizes.
class Executor {
 public:
  explicit Executor(Network& net);
  ~Executor();
  Executor(const Executor&) = delete;
  Executor& operator=(const Executor&) = delete;

  /// The network every run executes against.
  Network& network() const { return net_; }

  /// Run all rank programs to completion. If `store` is non-null, data
  /// tracking is enabled: sends snapshot blocks, receive completions
  /// apply them. Throws InternalError on deadlock (some rank blocked
  /// forever) with a diagnostic of the first stuck ranks, and when a
  /// matched send and receive disagree on their byte count.
  [[nodiscard]] ExecResult run(const ProgramSet& programs,
                               DataStore* store = nullptr);

 private:
  class Engine;

  Network& net_;
  std::unique_ptr<Engine> engine_;
};

}  // namespace mpicp::sim
