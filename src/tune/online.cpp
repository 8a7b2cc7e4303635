#include "tune/online.hpp"

#include <string>
#include <utility>

#include "support/error.hpp"
#include "support/stats.hpp"
#include "support/trace.hpp"

namespace mpicp::tune {

OnlineSelector::OnlineSelector(Options options)
    : options_(std::move(options)) {
  MPICP_REQUIRE(!options_.candidate_uids.empty(),
                "online selector needs candidates");
  MPICP_REQUIRE(options_.probes_per_algorithm >= 1,
                "need at least one probe per algorithm");
  MPICP_REQUIRE(static_cast<std::size_t>(options_.probes_per_algorithm) <=
                    kMaxObservationsPerUid,
                "the probe budget must fit the retained observations");
}

int OnlineSelector::next_uid(const bench::Instance& inst) {
  const support::MutexLock lock(mu_);
  Cell& c = cells_[inst];
  if (c.committed_uid >= 0) return c.committed_uid;
  // Round-robin over candidates that still need probes.
  const auto probes = static_cast<std::size_t>(
      options_.probes_per_algorithm);
  int least_uid = -1;
  std::size_t least = probes;
  for (const int uid : options_.candidate_uids) {
    const auto it = c.observations.find(uid);
    const std::size_t seen =
        it == c.observations.end() ? 0 : it->second.size();
    if (seen < least) {
      least = seen;
      least_uid = uid;
    }
  }
  if (least_uid >= 0) return least_uid;
  // Everything probed: commit to the best median.
  double best_time = 0.0;
  for (const auto& [uid, times] : c.observations) {
    const double med = support::median(times);
    if (c.committed_uid < 0 || med < best_time) {
      c.committed_uid = uid;
      best_time = med;
    }
  }
  return c.committed_uid;
}

void OnlineSelector::record(const bench::Instance& inst, int uid,
                            double time_us) {
  // The rule Dataset::add holds observations_dataset's rows to: a
  // measurement it would refuse never enters a cell.
  const std::string reason = bench::validate_record(
      {uid, inst.nodes, inst.ppn, inst.msize, time_us});
  MPICP_REQUIRE(reason.empty(), "rejected measurement: " + reason);
  const support::MutexLock lock(mu_);
  std::vector<double>& times = cells_[inst].observations[uid];
  times.push_back(time_us);
  // Bounded memory: keep only the freshest kMaxObservationsPerUid
  // measurements (a long-running stream would otherwise grow without
  // bound per instance).
  if (times.size() > kMaxObservationsPerUid) {
    times.erase(times.begin(),
                times.begin() + static_cast<std::ptrdiff_t>(
                                    times.size() - kMaxObservationsPerUid));
  }
}

std::size_t OnlineSelector::observation_count() const {
  const support::MutexLock lock(mu_);
  std::size_t total = 0;
  for (const auto& [inst, cell] : cells_) {
    for (const auto& [uid, times] : cell.observations) {
      total += times.size();
    }
  }
  return total;
}

bool OnlineSelector::converged(const bench::Instance& inst) const {
  const support::MutexLock lock(mu_);
  const auto it = cells_.find(inst);
  if (it == cells_.end()) return false;
  if (it->second.committed_uid >= 0) return true;
  for (const int uid : options_.candidate_uids) {
    const auto obs = it->second.observations.find(uid);
    const std::size_t seen =
        obs == it->second.observations.end() ? 0 : obs->second.size();
    if (seen < static_cast<std::size_t>(options_.probes_per_algorithm)) {
      return false;
    }
  }
  return true;
}

int OnlineSelector::current_best(const bench::Instance& inst) const {
  const support::MutexLock lock(mu_);
  const auto it = cells_.find(inst);
  MPICP_REQUIRE(it != cells_.end() && !it->second.observations.empty(),
                "no observations for instance");
  if (it->second.committed_uid >= 0) return it->second.committed_uid;
  int best_uid = -1;
  double best_time = 0.0;
  for (const auto& [uid, times] : it->second.observations) {
    const double med = support::median(times);
    if (best_uid < 0 || med < best_time) {
      best_uid = uid;
      best_time = med;
    }
  }
  return best_uid;
}

bench::Dataset OnlineSelector::observations_dataset(
    std::string name, sim::MpiLib lib, sim::Collective coll,
    std::string machine) const {
  MPICP_SPAN("online.export_dataset");
  bench::Dataset ds(std::move(name), lib, coll, std::move(machine));
  const support::MutexLock lock(mu_);
  for (const auto& [inst, cell] : cells_) {
    for (const auto& [uid, times] : cell.observations) {
      for (const double time_us : times) {
        ds.add({uid, inst.nodes, inst.ppn, inst.msize, time_us});
      }
    }
  }
  return ds;
}

}  // namespace mpicp::tune
