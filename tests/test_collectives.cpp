// Semantic property tests for every collective algorithm configuration.
//
// Every registry uid is executed in data-tracking mode over a sweep of
// process geometries and message sizes; the post-conditions of
// validate_store() then assert the algorithm really implements its
// collective (broadcast delivers the root's data everywhere, allreduce
// accumulates every contribution on every rank, alltoall routes every
// block to the right slot, ...).
#include <gtest/gtest.h>

#include <string>

#include "simmpi/coll/datainit.hpp"
#include "simmpi/coll/registry.hpp"
#include "simmpi/coll/smallcoll.hpp"
#include "simmpi/executor.hpp"
#include "simnet/machine.hpp"

namespace mpicp::sim {
namespace {

struct SweepParam {
  MpiLib lib;
  Collective coll;
  int nodes;
  int ppn;
  std::size_t bytes;
  int root;
};

std::string ParamName(const ::testing::TestParamInfo<SweepParam>& info) {
  const SweepParam& p = info.param;
  return to_string(p.lib) + "_" + to_string(p.coll) + "_n" +
         std::to_string(p.nodes) + "x" + std::to_string(p.ppn) + "_m" +
         std::to_string(p.bytes) + "_r" + std::to_string(p.root);
}

class CollectiveSemantics : public ::testing::TestWithParam<SweepParam> {};

TEST_P(CollectiveSemantics, EveryUidDeliversCorrectData) {
  const SweepParam& param = GetParam();
  const Comm comm(param.nodes, param.ppn);
  MachineDesc desc = hydra_machine();
  Network net(desc, param.nodes, param.ppn);
  Executor exec(net);
  for (const AlgoConfig& cfg :
       algorithm_configs(param.lib, param.coll)) {
    BuiltCollective built =
        build_algorithm(param.lib, param.coll, cfg, comm, param.bytes,
                        param.root, /*tracking=*/true);
    DataStore store = make_initial_store(param.coll, comm.size(),
                                         built.blocks_per_rank, param.root);
    const ExecResult res = exec.run(built.programs, &store);
    if (comm.size() > 1) {
      EXPECT_GT(res.makespan_us, 0.0) << cfg.label();
    }
    const std::string err =
        validate_store(param.coll, store, comm.size(), param.root);
    EXPECT_EQ(err, "") << to_string(param.lib) << "/"
                       << to_string(param.coll) << " uid=" << cfg.uid
                       << " (" << cfg.label() << "), " << param.nodes << "x"
                       << param.ppn << ", m=" << param.bytes;
  }
}

std::vector<SweepParam> MakeRegistrySweep() {
  std::vector<SweepParam> out;
  const std::vector<std::pair<int, int>> geometries = {
      {1, 1}, {1, 4}, {2, 1}, {2, 3}, {3, 2}, {4, 4}, {5, 3}, {7, 1}, {8, 2}};
  const std::vector<std::size_t> sizes = {1, 64, 8192, 100000};
  for (const auto lib : {MpiLib::kOpenMPI, MpiLib::kIntelMPI}) {
    for (const auto coll : {Collective::kBcast, Collective::kAllreduce,
                            Collective::kAlltoall}) {
      for (const auto& [nodes, ppn] : geometries) {
        for (const std::size_t m : sizes) {
          out.push_back({lib, coll, nodes, ppn, m, 0});
        }
      }
    }
  }
  // Non-zero roots for the non-hierarchical (Open MPI) broadcast suite.
  for (const auto& [nodes, ppn] :
       std::vector<std::pair<int, int>>{{3, 2}, {5, 3}}) {
    for (const std::size_t m : sizes) {
      out.push_back(
          {MpiLib::kOpenMPI, Collective::kBcast, nodes, ppn, m,
           nodes * ppn - 1});
      out.push_back({MpiLib::kOpenMPI, Collective::kBcast, nodes, ppn, m, 1});
    }
  }
  return out;
}

INSTANTIATE_TEST_SUITE_P(RegistrySweep, CollectiveSemantics,
                         ::testing::ValuesIn(MakeRegistrySweep()),
                         ParamName);

// ---- substrate collectives (reduce/gather/scatter/allgather) ----------

struct SmallParam {
  int nodes;
  int ppn;
  std::size_t bytes;
  int root;
};

class SubstrateSemantics : public ::testing::TestWithParam<SmallParam> {
 protected:
  void Check(Collective coll, BuiltCollective built, int p, int root) {
    MachineDesc desc = hydra_machine();
    Network net(desc, GetParam().nodes, GetParam().ppn);
    Executor exec(net);
    DataStore store =
        make_initial_store(coll, p, built.blocks_per_rank, root);
    // Single-rank sweeps finish at t=0, so only non-negativity holds.
    EXPECT_GE(exec.run(built.programs, &store).makespan_us, 0.0);
    EXPECT_EQ(validate_store(coll, store, p, root), "")
        << to_string(coll) << " " << GetParam().nodes << "x"
        << GetParam().ppn;
  }
};

TEST_P(SubstrateSemantics, Reduce) {
  const auto& [nodes, ppn, bytes, root] = GetParam();
  const Comm comm(nodes, ppn);
  const int p = comm.size();
  Check(Collective::kReduce, reduce_binomial(comm, bytes, 1024, root), p,
        root);
  Check(Collective::kReduce, reduce_pipeline(comm, bytes, 1024, root), p,
        root);
}

TEST_P(SubstrateSemantics, Allgather) {
  const auto& [nodes, ppn, bytes, root] = GetParam();
  (void)root;
  const Comm comm(nodes, ppn);
  const int p = comm.size();
  Check(Collective::kAllgather, allgather_ring(comm, bytes), p, 0);
  Check(Collective::kAllgather, allgather_recursive_doubling(comm, bytes),
        p, 0);
}

TEST_P(SubstrateSemantics, GatherScatter) {
  const auto& [nodes, ppn, bytes, root] = GetParam();
  const Comm comm(nodes, ppn);
  const int p = comm.size();
  Check(Collective::kGather, gather_binomial(comm, bytes, root), p, root);
  Check(Collective::kScatter, scatter_binomial(comm, bytes, root), p, root);
}

std::string SmallName(const ::testing::TestParamInfo<SmallParam>& info) {
  const SmallParam& p = info.param;
  std::string name = "n";
  name.append(std::to_string(p.nodes)).append("x");
  name.append(std::to_string(p.ppn)).append("_m");
  name.append(std::to_string(p.bytes)).append("_r");
  return name.append(std::to_string(p.root));
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, SubstrateSemantics,
    ::testing::ValuesIn(std::vector<SmallParam>{
        {1, 1, 8, 0},
        {1, 5, 64, 2},
        {2, 2, 1, 0},
        {3, 2, 4096, 5},
        {4, 4, 100000, 0},
        {5, 3, 8192, 7},
        {8, 1, 512, 3},
        {6, 4, 30000, 23},
    }),
    SmallName);

}  // namespace
}  // namespace mpicp::sim
