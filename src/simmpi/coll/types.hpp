// Shared vocabulary of the collective algorithm layer.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

#include "simmpi/program.hpp"
#include "simnet/network.hpp"
#include "support/error.hpp"

namespace mpicp::sim {

/// The MPI collectives we model. The paper's evaluation covers Bcast,
/// Allreduce and Alltoall; reduce, allgather, scatter and gather are
/// the substrates the self-consistency guideline checks
/// (collbench/guidelines) run.
enum class Collective {
  kBcast,
  kReduce,
  kAllreduce,
  kAlltoall,
  kAllgather,
  kScatter,
  kGather,
};

std::string to_string(Collective c);
Collective collective_from_string(const std::string& name);

/// Result of building one collective algorithm instance: the rank
/// programs plus the data-tracking block layout (blocks per rank) the
/// builder used, so validation knows the store shape.
struct BuiltCollective {
  ProgramSet programs;
  int blocks_per_rank = 1;
};

/// Rank mapping of one job allocation. Placement must agree with the
/// Network the programs run on: block (SLURM default, rank r on node
/// r / ppn) or cyclic (rank r on node r mod nodes).
class Comm {
 public:
  Comm(int nodes, int ppn, Placement placement = Placement::kBlock)
      : nodes_(nodes), ppn_(ppn), placement_(placement) {
    MPICP_REQUIRE(nodes >= 1 && ppn >= 1, "empty communicator");
  }

  int size() const { return nodes_ * ppn_; }
  int nodes() const { return nodes_; }
  int ppn() const { return ppn_; }
  Placement placement() const { return placement_; }

  int node_of(int rank) const {
    return placement_ == Placement::kBlock ? rank / ppn_ : rank % nodes_;
  }
  int local_of(int rank) const {
    return placement_ == Placement::kBlock ? rank % ppn_ : rank / nodes_;
  }
  int rank_of(int node, int local) const {
    return placement_ == Placement::kBlock ? node * ppn_ + local
                                           : local * nodes_ + node;
  }
  int leader_of_node(int node) const { return rank_of(node, 0); }

 private:
  int nodes_;
  int ppn_;
  Placement placement_;
};

/// Segmentation of a message of `total` bytes into pipeline segments.
/// seg_request == 0 (or >= total) means a single unsegmented message.
/// The number of segments is capped so that pathological configurations
/// (tiny segments on huge buffers) stay simulatable; beyond the cap the
/// effective segment grows, which mirrors how real implementations clamp
/// their segment counts.
struct Segmentation {
  std::uint32_t nseg = 1;
  std::size_t seg_bytes = 0;
  std::size_t last_bytes = 0;

  std::size_t bytes_of(std::uint32_t s) const {
    return s + 1 == nseg ? last_bytes : seg_bytes;
  }
};

Segmentation make_segmentation(std::size_t total_bytes,
                               std::size_t seg_request);

/// Upper bound on segments per message (see Segmentation).
inline constexpr std::uint32_t kMaxSegments = 4096;

}  // namespace mpicp::sim
