// Timing-model sanity properties of the simulated collectives: the
// qualitative effects the paper's algorithm-selection problem lives on
// must be present (monotonicity, tree-vs-linear crossover, segmentation
// payoff for large messages, hierarchy sensitivity).
#include <gtest/gtest.h>

#include "simmpi/coll/bcast.hpp"
#include "simmpi/coll/registry.hpp"
#include "simmpi/executor.hpp"
#include "simnet/machine.hpp"

namespace mpicp::sim {
namespace {

double run_uid(MpiLib lib, Collective coll, int uid, int nodes, int ppn,
               std::size_t bytes) {
  const Comm comm(nodes, ppn);
  MachineDesc desc = hydra_machine();
  Network net(desc, nodes, ppn);
  Executor exec(net);
  const AlgoConfig& cfg = config_by_uid(lib, coll, uid);
  BuiltCollective built = build_algorithm(lib, coll, cfg, comm, bytes, 0,
                                          /*tracking=*/false);
  return exec.run(built.programs).makespan_us;
}

double run_built(BuiltCollective built, int nodes, int ppn) {
  MachineDesc desc = hydra_machine();
  Network net(desc, nodes, ppn);
  Executor exec(net);
  return exec.run(built.programs).makespan_us;
}

int uid_of(MpiLib lib, Collective coll, const std::string& name,
           std::size_t seg, int param) {
  for (const auto& cfg : algorithm_configs(lib, coll)) {
    if (cfg.name == name && cfg.seg_bytes == seg && cfg.param == param) {
      return cfg.uid;
    }
  }
  throw std::runtime_error("no such config in test: " + name);
}

TEST(Timing, RuntimeIncreasesWithMessageSize) {
  for (const auto& cfg :
       algorithm_configs(MpiLib::kOpenMPI, Collective::kBcast)) {
    double prev = 0.0;
    for (const std::size_t m : {256u, 4096u, 65536u, 1048576u}) {
      const double t = run_uid(MpiLib::kOpenMPI, Collective::kBcast,
                               cfg.uid, 8, 4, m);
      EXPECT_GT(t, prev * 0.999) << cfg.label() << " m=" << m;
      prev = t;
    }
  }
}

TEST(Timing, RuntimeIncreasesWithScaleForTrees) {
  const int uid = uid_of(MpiLib::kOpenMPI, Collective::kBcast, "binomial",
                         0, 0);
  const double t8 =
      run_uid(MpiLib::kOpenMPI, Collective::kBcast, uid, 8, 4, 4096);
  const double t32 =
      run_uid(MpiLib::kOpenMPI, Collective::kBcast, uid, 32, 4, 4096);
  EXPECT_GT(t32, t8);
}

TEST(Timing, BinomialBeatsLinearAtScaleForSmallMessages) {
  const int lin =
      uid_of(MpiLib::kOpenMPI, Collective::kBcast, "linear", 0, 0);
  const int bin =
      uid_of(MpiLib::kOpenMPI, Collective::kBcast, "binomial", 0, 0);
  const double t_lin =
      run_uid(MpiLib::kOpenMPI, Collective::kBcast, lin, 32, 8, 256);
  const double t_bin =
      run_uid(MpiLib::kOpenMPI, Collective::kBcast, bin, 32, 8, 256);
  EXPECT_GT(t_lin, 3.0 * t_bin);  // root NIC serialization must bite
}

TEST(Timing, SegmentationHelpsLargeBroadcasts) {
  // The Figure 2 effect: a segmented chain beats the linear broadcast by
  // a large factor at 4 MiB, and an unsegmented pipeline is worse than a
  // segmented one.
  const std::size_t m = 4u << 20;
  const double t_linear = run_uid(
      MpiLib::kOpenMPI, Collective::kBcast,
      uid_of(MpiLib::kOpenMPI, Collective::kBcast, "linear", 0, 0), 16, 4,
      m);
  const double t_chain = run_uid(
      MpiLib::kOpenMPI, Collective::kBcast,
      uid_of(MpiLib::kOpenMPI, Collective::kBcast, "chain", 16384, 4), 16,
      4, m);
  EXPECT_GT(t_linear, 5.0 * t_chain);

  const double t_pipe_unseg = run_uid(
      MpiLib::kOpenMPI, Collective::kBcast,
      uid_of(MpiLib::kOpenMPI, Collective::kBcast, "pipeline", 0, 0), 16, 4,
      m);
  const double t_pipe_seg = run_uid(
      MpiLib::kOpenMPI, Collective::kBcast,
      uid_of(MpiLib::kOpenMPI, Collective::kBcast, "pipeline", 65536, 0),
      16, 4, m);
  EXPECT_GT(t_pipe_unseg, 2.0 * t_pipe_seg);
}

TEST(Timing, RingAllreduceWinsForLargeMessages) {
  const int ring =
      uid_of(MpiLib::kOpenMPI, Collective::kAllreduce, "ring", 0, 0);
  const int lin = uid_of(MpiLib::kOpenMPI, Collective::kAllreduce,
                         "basic_linear", 0, 0);
  const std::size_t m = 4u << 20;
  const double t_ring =
      run_uid(MpiLib::kOpenMPI, Collective::kAllreduce, ring, 16, 4, m);
  const double t_lin =
      run_uid(MpiLib::kOpenMPI, Collective::kAllreduce, lin, 16, 4, m);
  EXPECT_GT(t_lin, 3.0 * t_ring);
}

TEST(Timing, RecursiveDoublingWinsForSmallAllreduce) {
  const int rd = uid_of(MpiLib::kOpenMPI, Collective::kAllreduce,
                        "recursive_doubling", 0, 0);
  const int ring =
      uid_of(MpiLib::kOpenMPI, Collective::kAllreduce, "ring", 0, 0);
  const double t_rd =
      run_uid(MpiLib::kOpenMPI, Collective::kAllreduce, rd, 32, 4, 64);
  const double t_ring =
      run_uid(MpiLib::kOpenMPI, Collective::kAllreduce, ring, 32, 4, 64);
  EXPECT_GT(t_ring, 2.0 * t_rd);  // p-1 latency steps vs log2 p
}

TEST(Timing, BruckBeatsLinearForTinyAlltoall) {
  const int bruck = uid_of(MpiLib::kIntelMPI, Collective::kAlltoall,
                           "bruck", 0, 2);
  const int pair = uid_of(MpiLib::kIntelMPI, Collective::kAlltoall,
                          "pairwise", 0, 0);
  const double t_bruck =
      run_uid(MpiLib::kIntelMPI, Collective::kAlltoall, bruck, 16, 4, 8);
  const double t_pair =
      run_uid(MpiLib::kIntelMPI, Collective::kAlltoall, pair, 16, 4, 8);
  EXPECT_LT(t_bruck, t_pair);
}

TEST(Timing, PairwiseBeatsBruckForLargeAlltoall) {
  const int bruck = uid_of(MpiLib::kIntelMPI, Collective::kAlltoall,
                           "bruck", 0, 2);
  const int pair = uid_of(MpiLib::kIntelMPI, Collective::kAlltoall,
                          "pairwise", 0, 0);
  const double t_bruck = run_uid(MpiLib::kIntelMPI, Collective::kAlltoall,
                                 bruck, 8, 4, 65536);
  const double t_pair = run_uid(MpiLib::kIntelMPI, Collective::kAlltoall,
                                pair, 8, 4, 65536);
  EXPECT_LT(t_pair, t_bruck);  // Bruck ships each byte log p times
}

TEST(Timing, HierarchicalBcastHelpsAtHighPpn) {
  // With many ranks per node, a topology-aware chain crosses the fabric
  // once per node instead of once per rank. (The binomial tree under
  // block placement is naturally hierarchy-friendly, so the effect is
  // starkest for the chain/pipeline family.)
  const std::size_t m = 65536;
  const double t_flat = run_uid(
      MpiLib::kIntelMPI, Collective::kBcast,
      uid_of(MpiLib::kIntelMPI, Collective::kBcast, "pipeline", 65536, 0),
      7, 24, m);
  const double t_hier = run_uid(
      MpiLib::kIntelMPI, Collective::kBcast,
      uid_of(MpiLib::kIntelMPI, Collective::kBcast, "topo_pipeline", 65536,
             0),
      7, 24, m);
  EXPECT_LT(t_hier, 0.5 * t_flat);
}

TEST(Timing, SingleRankCollectivesAreCheap) {
  const double t = run_uid(
      MpiLib::kOpenMPI, Collective::kBcast,
      uid_of(MpiLib::kOpenMPI, Collective::kBcast, "binomial", 0, 0), 1, 1,
      1 << 20);
  EXPECT_LT(t, 1.0);
}

TEST(Timing, DeterministicAcrossRuns) {
  const int uid = uid_of(MpiLib::kOpenMPI, Collective::kBcast, "chain",
                         16384, 8);
  const double a =
      run_uid(MpiLib::kOpenMPI, Collective::kBcast, uid, 16, 8, 1 << 20);
  const double b =
      run_uid(MpiLib::kOpenMPI, Collective::kBcast, uid, 16, 8, 1 << 20);
  EXPECT_DOUBLE_EQ(a, b);
}

TEST(Timing, RootRotationKeepsCostSimilar) {
  const Comm comm(8, 4);
  const double t0 =
      run_built(bcast_binomial(comm, 4096, 0, /*root=*/0), 8, 4);
  const double t5 =
      run_built(bcast_binomial(comm, 4096, 0, /*root=*/5), 8, 4);
  EXPECT_NEAR(t0, t5, t0 * 0.8);
}

}  // namespace
}  // namespace mpicp::sim
