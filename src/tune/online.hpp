// Online algorithm selection (STAR-MPI-style), an extension beyond the
// paper's offline framework: during an application run, the first calls
// of a collective on a given instance probe the candidate algorithms;
// once every candidate has been measured `probes_per_algorithm` times,
// the selector commits to the empirically best one.
//
// The paper (§II, §VI) argues offline regression avoids exactly the
// exploration cost this incurs; bench_online_vs_offline quantifies the
// trade-off.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "collbench/dataset.hpp"
#include "support/thread_safety.hpp"

namespace mpicp::tune {

class OnlineSelector {
 public:
  /// Bounded memory: at most this many retained observations per
  /// (instance, uid); beyond it the oldest measurement is evicted (a
  /// long-running job keeps the freshest evidence).
  static constexpr std::size_t kMaxObservationsPerUid = 256;

  struct Options {
    std::vector<int> candidate_uids;  ///< algorithms to explore
    /// At most kMaxObservationsPerUid, so convergence stays reachable.
    int probes_per_algorithm = 3;
  };

  explicit OnlineSelector(Options options);

  /// The uid to use for the next call of this instance. During
  /// exploration this cycles through under-probed candidates; after
  /// convergence it returns the committed winner.
  int next_uid(const bench::Instance& inst);

  /// Feed back the measured duration of a call issued via next_uid.
  /// Throws InvalidArgument for a measurement bench::validate_record
  /// rejects (non-finite, non-positive, above kMaxTimeUs, bad key).
  void record(const bench::Instance& inst, int uid, double time_us);

  bool converged(const bench::Instance& inst) const;

  /// Total retained observations across all instances and uids — the
  /// quantity kMaxObservationsPerUid bounds (stream callers
  /// assert their memory cap against it).
  std::size_t observation_count() const;

  /// The committed (or currently best) uid for an instance.
  int current_best(const bench::Instance& inst) const;

  /// Everything recorded so far as a Dataset — the bridge from online
  /// exploration to the paper's offline regression pipeline: probe
  /// timings become ordinary measurement rows that Selector::fit can
  /// train on.
  [[nodiscard]] bench::Dataset observations_dataset(
      std::string name, sim::MpiLib lib, sim::Collective coll,
      std::string machine) const;

 private:
  struct Cell {
    std::map<int, std::vector<double>> observations;  // uid -> times
    int committed_uid = -1;
  };

  /// Validated by the constructor; immutable afterwards.
  Options options_;  // mpicp-lint: allow(lock-discipline)
  /// Serializes probe bookkeeping: concurrent ranks may interleave
  /// next_uid/record on the same selector. observations_dataset
  /// snapshots the observations under mu_, so a refit fits on the copy
  /// and the lock never spans a fit.
  mutable support::Mutex mu_;
  /// One cell per exact instance, in (nodes, ppn, msize) order.
  std::map<bench::Instance, Cell> cells_ MPICP_GUARDED_BY(mu_);
};

}  // namespace mpicp::tune
