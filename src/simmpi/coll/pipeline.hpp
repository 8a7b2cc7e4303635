// Generic, reusable program emitters: segmented tree broadcast/reduce
// pipelines, binomial scatter, ring and recursive-doubling allgather
// phases. The concrete algorithm builders (bcast.cpp, allreduce.cpp, ...)
// compose collectives from these pieces.
//
// All emitters work in *virtual rank* space (vrank 0 = operation root)
// and translate vranks to real ranks through a VrankMap, which covers
// root rotations, node-leader groups and node-local groups under both
// placement policies.
#pragma once

#include <cstdint>
#include <vector>

#include "simmpi/coll/trees.hpp"
#include "simmpi/coll/types.hpp"
#include "simmpi/program.hpp"

namespace mpicp::sim {

/// Vrank -> rank mapping over a process group: a rotation *within the
/// group* followed by an affine projection into the communicator,
///
///   rank_of(v) = (base + ((offset + v) mod p) * stride) mod world.
///
/// Covers every group shape the algorithms need: a root rotation of the
/// whole communicator (offset = root, stride = 1), the node-leader group
/// of a hierarchical algorithm (stride = ppn for block placement, 1 for
/// cyclic), one node's local ranks, and rotated variants of any of these
/// (ring phases that start at a shifted vrank).
struct VrankMap {
  int base = 0;    ///< rank of group member 0
  int stride = 1;  ///< rank distance between consecutive group members
  int offset = 0;  ///< group-space rotation: vrank 0 = member `offset`
  int world = 1;   ///< communicator size
  int p = 1;       ///< group size (number of vranks)

  int rank_of(int v) const {
    return (base + ((offset + v) % p) * stride) % world;
  }

  /// `out` = the ranks of the vranks `vs`.
  void ranks_of(const std::vector<int>& vs, std::vector<int>& out) const {
    out.clear();
    for (const int v : vs) out.push_back(rank_of(v));
  }

  /// This map with vrank 0 moved to member (offset + shift) mod p.
  VrankMap rotated(int shift) const {
    VrankMap out = *this;
    out.offset = (offset + shift % p + p) % p;
    return out;
  }

  static VrankMap rotation(int root, int p) {
    return {.base = 0, .stride = 1, .offset = root, .world = p, .p = p};
  }
  /// The node-leader group of `comm` (vrank v = leader of node v).
  static VrankMap leaders(const Comm& comm) {
    return {.base = 0,
            .stride = comm.placement() == Placement::kBlock ? comm.ppn()
                                                            : 1,
            .world = comm.size(),
            .p = comm.nodes()};
  }
  /// The local ranks of one node of `comm` (vrank v = local index v).
  static VrankMap node_local(const Comm& comm, int node) {
    return {.base = comm.leader_of_node(node),
            .stride = comm.placement() == Placement::kBlock ? 1
                                                            : comm.nodes(),
            .world = comm.size(),
            .p = comm.ppn()};
  }
};

/// Segmented pipelined broadcast down `tree`. Blocks are segment indices
/// [block_base, block_base + seg.nseg). Each non-root rank receives every
/// segment from its parent (blocking) and forwards it to its children
/// (nonblocking), which yields the classic pipeline overlap.
void emit_tree_bcast(ProgramSet& progs, const VrankMap& map,
                     const Tree& tree, const Segmentation& seg,
                     std::uint16_t tag, std::uint32_t block_base = 0);

/// Segmented pipelined reduction up `tree` toward vrank 0. Receives from
/// children carry the kCombine flag and are followed by reduction
/// compute; partial results are forwarded to the parent per segment.
void emit_tree_reduce(ProgramSet& progs, const VrankMap& map,
                      const Tree& tree, const Segmentation& seg,
                      std::uint16_t tag, std::uint32_t block_base = 0);

/// Binomial scatter of per-vrank chunks: after the phase, vrank v holds
/// chunks [v, v + subtree(v)) — its own and its subtree's. Requires a
/// tree whose subtrees are contiguous vrank ranges (binomial_tree is).
/// Chunk c occupies block block_base + c and has chunk_bytes[c] bytes.
void emit_binomial_scatter(ProgramSet& progs, const VrankMap& map,
                           const Tree& tree,
                           const std::vector<std::uint32_t>& chunk_bytes,
                           std::uint16_t tag, std::uint32_t block_base = 0);

/// Ring allgather of per-vrank chunks: vrank v starts owning chunk v and
/// after p-1 steps owns all chunks. When `combine` is set the received
/// chunks are OR-combined and followed by reduction compute (this variant
/// implements the reduce-scatter phase of the ring allreduce when run
/// with shrinking ownership; see emit_ring_reduce_scatter).
void emit_ring_allgather(ProgramSet& progs, const VrankMap& map,
                         const std::vector<std::uint32_t>& chunk_bytes,
                         std::uint16_t tag, std::uint32_t block_base = 0);

/// Ring reduce-scatter: after p-1 steps, vrank v holds the fully reduced
/// chunk (v+1) mod p. Receives combine and pay reduction compute.
void emit_ring_reduce_scatter(ProgramSet& progs, const VrankMap& map,
                              const std::vector<std::uint32_t>& chunk_bytes,
                              std::uint16_t tag,
                              std::uint32_t block_base = 0);

/// Recursive-doubling allgather with non-power-of-two fold-in: excess
/// vranks (v >= P2) first ship their chunk to v - P2 and receive the full
/// result afterwards. Used by the scatter-allgather broadcasts.
void emit_recdbl_allgather(ProgramSet& progs, const VrankMap& map,
                           const std::vector<std::uint32_t>& chunk_bytes,
                           std::uint16_t tag, std::uint32_t block_base = 0);

/// Even chunking of `total` bytes into `nchunks` chunks (first chunks one
/// byte larger when it does not divide evenly).
std::vector<std::uint32_t> even_chunks(std::size_t total, int nchunks);

/// Sum of a chunk-byte subrange [begin, end).
std::uint64_t chunk_range_bytes(const std::vector<std::uint32_t>& chunks,
                                int begin, int end);

/// Largest power of two <= p.
int floor_pow2(int p);

/// ceil(log2(p)) for p >= 1.
int ceil_log2(int p);

}  // namespace mpicp::sim
