// Bit-exactness pins of the simulator's two library calls.
//
// The rank programs every algorithm builder emits, and the DES results
// of the reproduce workload's set-up sweep and of a 72-rank allocation,
// are hashed and compared with digests recorded before any optimisation
// of the builders or the executor. A faster builder or event loop must
// leave them unchanged: every Op field of every rank, every makespan,
// finish time and message count. On a mismatch the test prints the
// digests it computed, one table row per line.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "collbench/specs.hpp"
#include "simmpi/coll/registry.hpp"
#include "simmpi/coll/smallcoll.hpp"
#include "simmpi/executor.hpp"
#include "simnet/machine.hpp"

namespace mpicp::sim {
namespace {

/// 64-bit multiply-xorshift hash over whole words.
struct Digest {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  void add(std::uint64_t x) {
    h = (h ^ x) * 0x9E3779B97F4A7C15ULL;
    h ^= h >> 29;
  }
};

void add_programs(Digest& d, const BuiltCollective& built) {
  d.add(static_cast<std::uint64_t>(built.blocks_per_rank));
  d.add(built.programs.size());
  for (const std::vector<Op>& prog : built.programs) {
    d.add(prog.size());
    for (const Op& op : prog) {
      d.add(static_cast<std::uint64_t>(op.kind) |
            static_cast<std::uint64_t>(op.flags) << 8 |
            static_cast<std::uint64_t>(op.tag) << 16 |
            static_cast<std::uint64_t>(static_cast<std::uint32_t>(op.peer))
                << 32);
      d.add(op.bytes | static_cast<std::uint64_t>(op.block_begin) << 32);
      d.add(op.block_count);
    }
  }
}

using Pins = std::vector<std::pair<std::string, std::uint64_t>>;

/// Compares computed digests with the pinned table, row by row.
void expect_pins(const Pins& got, const Pins& pinned) {
  EXPECT_EQ(got.size(), pinned.size());
  for (std::size_t i = 0; i < got.size() && i < pinned.size(); ++i) {
    EXPECT_EQ(got[i], pinned[i]);
  }
  if (got != pinned) {
    for (const auto& [label, digest] : got) {
      std::printf("      {\"%s\", 0x%016llxULL},\n", label.c_str(),
                  static_cast<unsigned long long>(digest));
    }
  }
}

/// Every config of every (lib, coll) table, on four communicators, at
/// the ten standard message sizes plus one that clamps the 1 KiB
/// segmentations at kMaxSegments; Alltoall also with exact per-block
/// tracking. One digest per (table, communicator, tracking). Then the
/// six substrate builders the guideline checks run, at the same sizes
/// on the block-placed communicators, at root 0 and at the last rank
/// where the builder takes a root, the reduces also at 1 KiB and 64 KiB
/// segments: one digest per (builder, communicator). Every rank's
/// program must also be allocated at exactly its size: each emitter
/// counts its ops before it emits them.
TEST(DesPins, EveryBuiltProgramMatchesItsPin) {
  struct CommCase {
    const char* name;
    Comm comm;
  };
  const std::vector<CommCase> comms = {
      {"4x1", Comm(4, 1)},
      {"4x8", Comm(4, 8)},
      {"7x3", Comm(7, 3)},
      {"4x8cyclic", Comm(4, 8, Placement::kCyclic)},
  };
  std::vector<std::uint64_t> msizes = bench::standard_msizes();
  const std::uint64_t clamped = (std::uint64_t{16} << 20) + 5;
  ASSERT_GT(make_segmentation(clamped, 1024).seg_bytes, 1024u);
  msizes.push_back(clamped);

  Pins got;
  std::vector<std::string> missized;
  const auto check_size = [&missized](const BuiltCollective& built,
                                      const std::string& what) {
    for (const std::vector<Op>& prog : built.programs) {
      if (prog.capacity() != prog.size()) {
        missized.push_back(what);
        return;
      }
    }
  };
  for (const MpiLib lib : {MpiLib::kOpenMPI, MpiLib::kIntelMPI}) {
    for (const Collective coll :
         {Collective::kBcast, Collective::kAllreduce, Collective::kAlltoall}) {
      const std::vector<bool> trackings =
          coll == Collective::kAlltoall ? std::vector<bool>{false, true}
                                        : std::vector<bool>{false};
      for (const CommCase& c : comms) {
        for (const bool tracking : trackings) {
          const std::string label = to_string(lib) + "/" + to_string(coll) +
                                    "/" + c.name +
                                    (tracking ? "/tracking" : "");
          Digest d;
          for (const AlgoConfig& cfg : algorithm_configs(lib, coll)) {
            for (const std::uint64_t msize : msizes) {
              const BuiltCollective built =
                  build_algorithm(lib, coll, cfg, c.comm, msize, 0, tracking);
              add_programs(d, built);
              check_size(built, label + " uid " + std::to_string(cfg.uid) +
                                    " msize " + std::to_string(msize));
            }
          }
          got.emplace_back(label, d.h);
        }
      }
    }
  }
  // Each substrate's variants at one (comm, msize, root); the
  // allgathers take no root and are built at root 0 only.
  using Variants =
      std::vector<BuiltCollective> (*)(const Comm&, std::size_t, int);
  const std::vector<std::pair<const char*, Variants>> substrates = {
      {"reduce_binomial",
       [](const Comm& comm, std::size_t m, int root) {
         return std::vector{reduce_binomial(comm, m, 0, root),
                            reduce_binomial(comm, m, 1024, root),
                            reduce_binomial(comm, m, 65536, root)};
       }},
      {"reduce_pipeline",
       [](const Comm& comm, std::size_t m, int root) {
         return std::vector{reduce_pipeline(comm, m, 0, root),
                            reduce_pipeline(comm, m, 1024, root),
                            reduce_pipeline(comm, m, 65536, root)};
       }},
      {"allgather_ring",
       [](const Comm& comm, std::size_t m, int root) {
         if (root != 0) return std::vector<BuiltCollective>{};
         return std::vector{allgather_ring(comm, m)};
       }},
      {"allgather_recursive_doubling",
       [](const Comm& comm, std::size_t m, int root) {
         if (root != 0) return std::vector<BuiltCollective>{};
         return std::vector{allgather_recursive_doubling(comm, m)};
       }},
      {"gather_binomial",
       [](const Comm& comm, std::size_t m, int root) {
         return std::vector{gather_binomial(comm, m, root)};
       }},
      {"scatter_binomial",
       [](const Comm& comm, std::size_t m, int root) {
         return std::vector{scatter_binomial(comm, m, root)};
       }},
  };
  for (const auto& [name, variants] : substrates) {
    for (const CommCase& c : comms) {
      // The substrates read only the communicator's size, so a cyclic
      // placement builds the same programs as its block twin.
      if (c.comm.placement() == Placement::kCyclic) continue;
      const std::string label = std::string("substrate/") + name + "/" + c.name;
      Digest d;
      for (const std::uint64_t msize : msizes) {
        for (const int root : {0, c.comm.size() - 1}) {
          for (const BuiltCollective& built : variants(c.comm, msize, root)) {
            add_programs(d, built);
            check_size(built, label + " msize " + std::to_string(msize) +
                                  " root " + std::to_string(root));
          }
        }
      }
      got.emplace_back(label, d.h);
    }
  }
  const Pins pinned = {
      {"OpenMPI/bcast/4x1", 0x666f8af9591af523ULL},
      {"OpenMPI/bcast/4x8", 0xc836f86f2489d6d6ULL},
      {"OpenMPI/bcast/7x3", 0x9504af007f75baa7ULL},
      {"OpenMPI/bcast/4x8cyclic", 0xc836f86f2489d6d6ULL},
      {"OpenMPI/allreduce/4x1", 0xc02add0bbf61d251ULL},
      {"OpenMPI/allreduce/4x8", 0x52bd3b10b2b02687ULL},
      {"OpenMPI/allreduce/7x3", 0x47837149d4cc142aULL},
      {"OpenMPI/allreduce/4x8cyclic", 0x52bd3b10b2b02687ULL},
      {"OpenMPI/alltoall/4x1", 0xe04b81b471f52400ULL},
      {"OpenMPI/alltoall/4x1/tracking", 0xdf76e3798e50daeeULL},
      {"OpenMPI/alltoall/4x8", 0x38e1756b71d201daULL},
      {"OpenMPI/alltoall/4x8/tracking", 0x1e1ba3292db11155ULL},
      {"OpenMPI/alltoall/7x3", 0x6bf010ab8285bfdbULL},
      {"OpenMPI/alltoall/7x3/tracking", 0x276b025f7c59fd3aULL},
      {"OpenMPI/alltoall/4x8cyclic", 0x38e1756b71d201daULL},
      {"OpenMPI/alltoall/4x8cyclic/tracking", 0x1e1ba3292db11155ULL},
      {"IntelMPI/bcast/4x1", 0x1f70114e16759244ULL},
      {"IntelMPI/bcast/4x8", 0x3605c40c51c6cf73ULL},
      {"IntelMPI/bcast/7x3", 0xa638c551c9a4a408ULL},
      {"IntelMPI/bcast/4x8cyclic", 0x9b04498ef09f81b7ULL},
      {"IntelMPI/allreduce/4x1", 0x0f16120b5ac429dfULL},
      {"IntelMPI/allreduce/4x8", 0xa44344467b1e7a66ULL},
      {"IntelMPI/allreduce/7x3", 0x3842548f1b5d91b1ULL},
      {"IntelMPI/allreduce/4x8cyclic", 0x36bde410589c59a9ULL},
      {"IntelMPI/alltoall/4x1", 0x0281231e34ecb86fULL},
      {"IntelMPI/alltoall/4x1/tracking", 0xc8c1d341abc0b56fULL},
      {"IntelMPI/alltoall/4x8", 0xc66fc4209139403eULL},
      {"IntelMPI/alltoall/4x8/tracking", 0x5c0ec1da7bf7b378ULL},
      {"IntelMPI/alltoall/7x3", 0x21ad93d399a04f0bULL},
      {"IntelMPI/alltoall/7x3/tracking", 0x539209da264900d7ULL},
      {"IntelMPI/alltoall/4x8cyclic", 0xc66fc4209139403eULL},
      {"IntelMPI/alltoall/4x8cyclic/tracking", 0x5c0ec1da7bf7b378ULL},
      {"substrate/reduce_binomial/4x1", 0x6f321064d8254683ULL},
      {"substrate/reduce_binomial/4x8", 0xd6ce82ead375bd55ULL},
      {"substrate/reduce_binomial/7x3", 0xda3e13405d000058ULL},
      {"substrate/reduce_pipeline/4x1", 0x24bd57a6ab3fbcefULL},
      {"substrate/reduce_pipeline/4x8", 0x6ad307aa11f4dad2ULL},
      {"substrate/reduce_pipeline/7x3", 0x296951997ce09a51ULL},
      {"substrate/allgather_ring/4x1", 0x67eff6461d1f89b1ULL},
      {"substrate/allgather_ring/4x8", 0x973bf754d68c4e06ULL},
      {"substrate/allgather_ring/7x3", 0x1e9d0b290f1595e7ULL},
      {"substrate/allgather_recursive_doubling/4x1", 0x519201a8afa7c936ULL},
      {"substrate/allgather_recursive_doubling/4x8", 0x3ea87e288201e819ULL},
      {"substrate/allgather_recursive_doubling/7x3", 0x778bb4020260ebb4ULL},
      {"substrate/gather_binomial/4x1", 0x69c771310fc196f1ULL},
      {"substrate/gather_binomial/4x8", 0x38dbc3b53cc095c3ULL},
      {"substrate/gather_binomial/7x3", 0x0288dd16426cd039ULL},
      {"substrate/scatter_binomial/4x1", 0x3fb190dd90ea894aULL},
      {"substrate/scatter_binomial/4x8", 0x061586d492b0513aULL},
      {"substrate/scatter_binomial/7x3", 0x4607c6918dfcf2e0ULL},
  };
  expect_pins(got, pinned);
  EXPECT_TRUE(missized.empty())
      << missized.size() << " builds not at their exact size, first "
      << missized.front();
}

/// d1 and d2 on Hydra at `nodes` nodes and each of `ppns`, every config
/// at every message size, untracked, through one reused Executor per
/// allocation: one digest per (dataset, ppn) over each run's makespan
/// and finish-time bits and message count, then the total message count.
Pins des_digests(int nodes, const std::vector<int>& ppns) {
  Pins got;
  std::uint64_t messages = 0;
  for (const std::string name : {"d1", "d2"}) {
    const bench::DatasetSpec& spec = bench::dataset_spec(name);
    for (const int ppn : ppns) {
      Network net(machine_by_name(spec.machine), nodes, ppn);
      Executor exec(net);
      const Comm comm(nodes, ppn);
      Digest d;
      for (const AlgoConfig& cfg : algorithm_configs(spec.lib, spec.coll)) {
        for (const std::uint64_t msize : spec.msizes) {
          const ExecResult res = exec.run(
              build_algorithm(spec.lib, spec.coll, cfg, comm, msize, 0, false)
                  .programs);
          d.add(std::bit_cast<std::uint64_t>(res.makespan_us));
          for (const double f : res.finish_us) {
            d.add(std::bit_cast<std::uint64_t>(f));
          }
          d.add(res.num_messages);
          messages += res.num_messages;
        }
      }
      got.emplace_back(name + "/" + std::to_string(nodes) + "x" +
                           std::to_string(ppn),
                       d.h);
    }
  }
  got.emplace_back("messages", messages);
  return got;
}

/// The reproduce workload's set-up sweep: 4 nodes, ppn 1 and 8.
TEST(DesPins, SetupSweepResultsMatchTheirPins) {
  const Pins pinned = {
      {"d1/4x1", 0xed47d31a3a160a7eULL},
      {"d1/4x8", 0xf0fa4c96b0883a48ULL},
      {"d2/4x1", 0xef5e7d129d05fed0ULL},
      {"d2/4x8", 0x6efcbe82605f588eULL},
      {"messages", 2975902},
  };
  expect_pins(des_digests(4, {1, 8}), pinned);
}

/// 9 nodes at ppn 8, 72 ranks: more than the executor queues in a
/// sorted array (64), so its heap is pinned too.
TEST(DesPins, SeventyTwoRankRunsMatchTheirPins) {
  const Pins pinned = {
      {"d1/9x8", 0xfac24cb414663a74ULL},
      {"d2/9x8", 0x7f1d6d6f07d9d69dULL},
      {"messages", 6588329},
  };
  expect_pins(des_digests(9, {8}), pinned);
}

}  // namespace
}  // namespace mpicp::sim
