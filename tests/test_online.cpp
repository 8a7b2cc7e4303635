// Tests for the STAR-MPI-style online selector extension.
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <vector>

#include "support/rng.hpp"
#include "tune/online.hpp"

namespace mpicp::tune {
namespace {

const bench::Instance kInst{8, 4, 1024};
const bench::Instance kOther{16, 4, 1024};

TEST(Online, ExploresEveryCandidateBeforeCommitting) {
  OnlineSelector sel({.candidate_uids = {1, 2, 3},
                      .probes_per_algorithm = 2});
  std::map<int, int> seen;
  for (int call = 0; call < 6; ++call) {
    EXPECT_FALSE(sel.converged(kInst));
    const int uid = sel.next_uid(kInst);
    ++seen[uid];
    sel.record(kInst, uid, 10.0 + uid);
  }
  EXPECT_TRUE(sel.converged(kInst));
  for (const int uid : {1, 2, 3}) EXPECT_EQ(seen[uid], 2);
}

TEST(Online, CommitsToEmpiricallyBest) {
  OnlineSelector sel({.candidate_uids = {1, 2, 3},
                      .probes_per_algorithm = 3});
  support::Xoshiro256 rng(5);
  for (int call = 0; call < 9; ++call) {
    const int uid = sel.next_uid(kInst);
    const double base = uid == 2 ? 5.0 : 20.0;  // uid 2 is best
    sel.record(kInst, uid, rng.lognormal_median(base, 0.05));
  }
  EXPECT_EQ(sel.next_uid(kInst), 2);
  EXPECT_EQ(sel.current_best(kInst), 2);
  // After convergence the choice stays fixed.
  for (int call = 0; call < 20; ++call) {
    EXPECT_EQ(sel.next_uid(kInst), 2);
  }
}

TEST(Online, InstancesAreIndependent) {
  OnlineSelector sel({.candidate_uids = {1, 2},
                      .probes_per_algorithm = 1});
  sel.record(kInst, 1, 1.0);
  sel.record(kInst, 2, 2.0);
  EXPECT_TRUE(sel.converged(kInst));
  EXPECT_FALSE(sel.converged(kOther));
  sel.record(kOther, 1, 9.0);
  sel.record(kOther, 2, 3.0);
  EXPECT_EQ(sel.current_best(kInst), 1);
  EXPECT_EQ(sel.current_best(kOther), 2);
}

TEST(Online, InstancesBeyondThirtyBitsGetTheirOwnCells) {
  // Message sizes past any packed-key field width must not fold two
  // instances into one cell.
  const bench::Instance small{2, 5, 64};
  const bench::Instance huge{2, 1, (std::uint64_t{1} << 38) + 64};
  OnlineSelector sel({.candidate_uids = {1, 2},
                      .probes_per_algorithm = 1});
  sel.record(small, 1, 10.0);
  sel.record(huge, 2, 1000.0);
  EXPECT_EQ(sel.observation_count(), 2u);
  EXPECT_FALSE(sel.converged(small));
  EXPECT_FALSE(sel.converged(huge));
  EXPECT_EQ(sel.current_best(small), 1);
  EXPECT_EQ(sel.current_best(huge), 2);
  const bench::Dataset ds = sel.observations_dataset(
      "online", sim::MpiLib::kOpenMPI, sim::Collective::kBcast, "Hydra");
  EXPECT_EQ(ds.instances(), (std::vector<bench::Instance>{huge, small}));
  EXPECT_DOUBLE_EQ(ds.time_us(1, small), 10.0);
  EXPECT_DOUBLE_EQ(ds.time_us(2, huge), 1000.0);
  EXPECT_FALSE(ds.has(2, small));
}

TEST(Online, RejectsBadInput) {
  EXPECT_THROW(OnlineSelector({.candidate_uids = {}}), Error);
  OnlineSelector sel({.candidate_uids = {1}});
  EXPECT_THROW(sel.record(kInst, 1, -1.0), Error);
  // Every timing Dataset::add refuses is refused here too, so
  // observations_dataset never meets one.
  for (const double bad : {0.0, std::numeric_limits<double>::infinity(),
                           std::numeric_limits<double>::quiet_NaN(),
                           2e9}) {
    EXPECT_THROW(sel.record(kInst, 1, bad), Error) << bad;
  }
  EXPECT_THROW(sel.record({0, 4, 1024}, 1, 10.0), Error);
  EXPECT_EQ(sel.observation_count(), 0u);
  EXPECT_THROW(sel.current_best(kOther), Error);
}

TEST(Online, EvictionBoundsRetainedObservations) {
  constexpr int kCap =
      static_cast<int>(OnlineSelector::kMaxObservationsPerUid);
  OnlineSelector sel({.candidate_uids = {1, 2},
                      .probes_per_algorithm = 3});
  // A long-running stream of measurements: retained observations stay
  // capped per (instance, uid) and only the freshest survive.
  for (int i = 0; i < kCap + 40; ++i) {
    sel.record(kInst, 1, 1000.0 - i);  // newest measurements are fastest
    sel.record(kInst, 2, 500.0);
  }
  EXPECT_EQ(sel.observation_count(), 2u * kCap);  // kCap per uid, 2 uids
  // The freshest kCap uid-1 times (705..960 us) still lose to uid 2's
  // steady 500 us...
  EXPECT_EQ(sel.current_best(kInst), 2);
  // ...but a burst of kCap fast uid-1 measurements flips the decision
  // even though kCap + 40 slow ones came first: stale evidence was
  // evicted (kept, it would hold the median above 500 us).
  for (int i = 0; i < kCap; ++i) {
    sel.record(kInst, 1, 10.0);
  }
  EXPECT_EQ(sel.observation_count(), 2u * kCap);
  EXPECT_EQ(sel.current_best(kInst), 1);
  // The cap must cover the probe budget: probes above it are refused.
  EXPECT_NO_THROW(OnlineSelector({.candidate_uids = {1},
                                  .probes_per_algorithm = kCap}));
  EXPECT_THROW(OnlineSelector({.candidate_uids = {1},
                               .probes_per_algorithm = kCap + 1}),
               Error);
}

TEST(Online, MedianCommitIsRobustToOneStraggler) {
  OnlineSelector sel({.candidate_uids = {1, 2},
                      .probes_per_algorithm = 3});
  // uid 1 is truly faster but one probe hits a 100x straggler; the
  // median commit must still pick it.
  const double times1[] = {10.0, 1000.0, 10.0};
  const double times2[] = {20.0, 20.0, 20.0};
  int i1 = 0;
  int i2 = 0;
  while (!sel.converged(kInst)) {
    const int uid = sel.next_uid(kInst);
    sel.record(kInst, uid, uid == 1 ? times1[i1++] : times2[i2++]);
  }
  EXPECT_EQ(sel.next_uid(kInst), 1);
}

}  // namespace
}  // namespace mpicp::tune
