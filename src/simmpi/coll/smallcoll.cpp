#include "simmpi/coll/smallcoll.hpp"

#include <vector>

#include "simmpi/coll/pipeline.hpp"
#include "simmpi/coll/trees.hpp"
#include "support/trace.hpp"

namespace mpicp::sim {

namespace {

constexpr std::uint16_t kTagReduce = 40;
constexpr std::uint16_t kTagGather = 41;
constexpr std::uint16_t kTagScatter = 42;
constexpr std::uint16_t kTagAllgather = 43;  // uses kTagAllgather(+1)
constexpr std::uint16_t kTagBcast = 45;
constexpr std::uint16_t kTagBarrier = 46;
constexpr std::uint16_t kTagScan = 47;

BuiltCollective tree_reduce(const Comm& comm, const Tree& tree,
                            std::size_t bytes, std::size_t seg_bytes,
                            int root) {
  MPICP_SPAN("sim.smallcoll.tree_reduce");
  const Segmentation seg = make_segmentation(bytes, seg_bytes);
  BuiltCollective out;
  out.programs.resize(comm.size());
  out.blocks_per_rank = static_cast<int>(seg.nseg);
  emit_tree_reduce(out.programs, VrankMap::rotation(root, comm.size()), tree,
                   seg, kTagReduce);
  return out;
}

/// Binomial gather: vrank v accumulates the contributions of its subtree
/// (contiguous vrank block range [v, v+size)) and ships them upward.
void emit_binomial_gather(ProgramSet& progs, const VrankMap& map,
                          const Tree& tree, std::size_t bytes,
                          std::uint16_t tag) {
  for (int v = 0; v < static_cast<int>(tree.size()); ++v) {
    const int rank = map.rank_of(v);
    // A recv per child, a send to the parent.
    RankProg prog(progs[rank], rank, map.world,
                  tree[v].children.size() + (tree[v].parent >= 0 ? 1 : 0));
    for (const int c : tree[v].children) {
      prog.recv(map.rank_of(c), tag,
                static_cast<std::uint64_t>(tree[c].subtree_size) * bytes,
                static_cast<std::uint32_t>(c),
                static_cast<std::uint32_t>(tree[c].subtree_size));
    }
    if (tree[v].parent >= 0) {
      prog.send(map.rank_of(tree[v].parent), tag,
                static_cast<std::uint64_t>(tree[v].subtree_size) * bytes,
                static_cast<std::uint32_t>(v),
                static_cast<std::uint32_t>(tree[v].subtree_size));
    }
  }
}

}  // namespace

BuiltCollective reduce_linear(const Comm& comm, std::size_t bytes,
                              int root) {
  return tree_reduce(comm, flat_tree(comm.size()), bytes, 0, root);
}

BuiltCollective reduce_binomial(const Comm& comm, std::size_t bytes,
                                std::size_t seg_bytes, int root) {
  return tree_reduce(comm, binomial_tree(comm.size()), bytes, seg_bytes,
                     root);
}

BuiltCollective reduce_binary(const Comm& comm, std::size_t bytes,
                              std::size_t seg_bytes, int root) {
  return tree_reduce(comm, binary_tree(comm.size()), bytes, seg_bytes, root);
}

BuiltCollective reduce_pipeline(const Comm& comm, std::size_t bytes,
                                std::size_t seg_bytes, int root) {
  return tree_reduce(comm, chain_tree(comm.size(), 1), bytes, seg_bytes,
                     root);
}

BuiltCollective allgather_ring(const Comm& comm, std::size_t bytes) {
  const int p = comm.size();
  BuiltCollective out;
  out.programs.resize(p);
  out.blocks_per_rank = p;
  const std::vector<std::uint32_t> chunks(
      p, static_cast<std::uint32_t>(bytes));
  emit_ring_allgather(out.programs, VrankMap::rotation(0, p), chunks,
                      kTagAllgather);
  return out;
}

BuiltCollective allgather_recursive_doubling(const Comm& comm,
                                             std::size_t bytes) {
  const int p = comm.size();
  BuiltCollective out;
  out.programs.resize(p);
  out.blocks_per_rank = p;
  const std::vector<std::uint32_t> chunks(
      p, static_cast<std::uint32_t>(bytes));
  emit_recdbl_allgather(out.programs, VrankMap::rotation(0, p), chunks,
                        kTagAllgather);
  return out;
}

BuiltCollective allgather_gather_bcast(const Comm& comm, std::size_t bytes) {
  const int p = comm.size();
  BuiltCollective out;
  out.programs.resize(p);
  out.blocks_per_rank = p;
  const VrankMap map = VrankMap::rotation(0, p);
  emit_binomial_gather(out.programs, map, binomial_tree(p), bytes,
                       kTagGather);
  // Broadcast the gathered buffer (p * bytes) down a binomial tree.
  const Tree tree = binomial_tree(p);
  for (int v = 0; v < p; ++v) {
    const int rank = map.rank_of(v);
    const std::size_t nc = tree[v].children.size();
    // A recv from the parent, an isend per child, one waitall.
    RankProg prog(out.programs[rank], rank, p,
                  (tree[v].parent >= 0 ? 1 : 0) + nc + (nc > 0 ? 1 : 0));
    if (tree[v].parent >= 0) {
      prog.recv(map.rank_of(tree[v].parent), kTagBcast,
                static_cast<std::uint64_t>(p) * bytes, 0,
                static_cast<std::uint32_t>(p));
    }
    for (const int c : tree[v].children) {
      prog.isend(map.rank_of(c), kTagBcast,
                 static_cast<std::uint64_t>(p) * bytes, 0,
                 static_cast<std::uint32_t>(p));
    }
    if (nc > 0) prog.waitall();
  }
  return out;
}

BuiltCollective gather_linear(const Comm& comm, std::size_t bytes,
                              int root) {
  const int p = comm.size();
  BuiltCollective out;
  out.programs.resize(p);
  out.blocks_per_rank = p;
  const VrankMap map = VrankMap::rotation(root, p);
  emit_binomial_gather(out.programs, map, flat_tree(p), bytes, kTagGather);
  return out;
}

BuiltCollective gather_binomial(const Comm& comm, std::size_t bytes,
                                int root) {
  const int p = comm.size();
  BuiltCollective out;
  out.programs.resize(p);
  out.blocks_per_rank = p;
  emit_binomial_gather(out.programs, VrankMap::rotation(root, p),
                       binomial_tree(p), bytes, kTagGather);
  return out;
}

BuiltCollective scatter_linear(const Comm& comm, std::size_t bytes,
                               int root) {
  const int p = comm.size();
  BuiltCollective out;
  out.programs.resize(p);
  out.blocks_per_rank = p;
  const std::vector<std::uint32_t> chunks(
      p, static_cast<std::uint32_t>(bytes));
  emit_binomial_scatter(out.programs, VrankMap::rotation(root, p),
                        flat_tree(p), chunks, kTagScatter);
  return out;
}

BuiltCollective scatter_binomial(const Comm& comm, std::size_t bytes,
                                 int root) {
  const int p = comm.size();
  BuiltCollective out;
  out.programs.resize(p);
  out.blocks_per_rank = p;
  const std::vector<std::uint32_t> chunks(
      p, static_cast<std::uint32_t>(bytes));
  emit_binomial_scatter(out.programs, VrankMap::rotation(root, p),
                        binomial_tree(p), chunks, kTagScatter);
  return out;
}

BuiltCollective barrier_dissemination(const Comm& comm) {
  const int p = comm.size();
  BuiltCollective out;
  out.programs.resize(p);
  out.blocks_per_rank = 1;
  const std::size_t rounds = static_cast<std::size_t>(ceil_log2(p));
  for (int r = 0; r < p; ++r) {
    // isend, recv and waitall per round.
    RankProg prog(out.programs[r], r, p, 3 * rounds);
    for (int d = 1; d < p; d <<= 1) {
      prog.isend((r + d) % p, kTagBarrier, 0);
      prog.recv((r - d + p) % p, kTagBarrier, 0);
      prog.waitall();
    }
  }
  return out;
}

BuiltCollective barrier_tree(const Comm& comm) {
  const int p = comm.size();
  BuiltCollective out;
  out.programs.resize(p);
  out.blocks_per_rank = 1;
  const VrankMap map = VrankMap::rotation(0, p);
  const Tree tree = binomial_tree(p);
  const Segmentation seg = make_segmentation(0, 0);
  emit_tree_reduce(out.programs, map, tree, seg, kTagReduce);
  emit_tree_bcast(out.programs, map, tree, seg, kTagBcast);
  return out;
}

BuiltCollective scan_linear(const Comm& comm, std::size_t bytes) {
  const int p = comm.size();
  BuiltCollective out;
  out.programs.resize(p);
  out.blocks_per_rank = 1;
  // Sequential prefix chain: rank r combines rank r-1's prefix into its
  // own and forwards the result.
  for (int r = 0; r < p; ++r) {
    RankProg prog(out.programs[r], r, p,
                  (r > 0 ? 2 : 0) + (r + 1 < p ? 1 : 0));
    if (r > 0) {
      prog.recv(r - 1, kTagScan, bytes, 0, 1, kCombine);
      prog.compute(bytes);
    }
    if (r + 1 < p) prog.send(r + 1, kTagScan, bytes, 0, 1);
  }
  return out;
}

BuiltCollective scan_recursive_doubling(const Comm& comm,
                                        std::size_t bytes) {
  const int p = comm.size();
  BuiltCollective out;
  out.programs.resize(p);
  out.blocks_per_rank = 1;
  // Hillis-Steele: in round d every rank ships its running prefix d
  // ranks up and folds in the prefix arriving from d ranks down; after
  // ceil(log2 p) rounds rank r holds contributions 0..r.
  for (int r = 0; r < p; ++r) {
    // Per round: isend and waitall upward, recv and compute from below.
    std::size_t num_ops = 0;
    for (int d = 1; d < p; d <<= 1) {
      num_ops += (r + d < p ? 2 : 0) + (r - d >= 0 ? 2 : 0);
    }
    RankProg prog(out.programs[r], r, p, num_ops);
    for (int d = 1; d < p; d <<= 1) {
      if (r + d < p) prog.isend(r + d, kTagScan, bytes, 0, 1);
      if (r - d >= 0) {
        prog.recv(r - d, kTagScan, bytes, 0, 1, kCombine);
        prog.compute(bytes);
      }
      if (r + d < p) prog.waitall();
    }
  }
  return out;
}

BuiltCollective reduce_scatter_ring(const Comm& comm, std::size_t bytes) {
  const int p = comm.size();
  BuiltCollective out;
  out.programs.resize(p);
  out.blocks_per_rank = p;
  if (p == 1) return out;
  // emit_ring_reduce_scatter leaves vrank v with chunk (v+1) mod p fully
  // reduced; the rotation below aligns that with the MPI semantics
  // "rank j owns chunk j".
  const auto chunks = even_chunks(bytes, p);
  emit_ring_reduce_scatter(out.programs,
                           VrankMap::rotation(1, p), chunks,
                           kTagReduce);
  return out;
}

BuiltCollective reduce_scatter_halving(const Comm& comm,
                                       std::size_t bytes) {
  const int p = comm.size();
  if (floor_pow2(p) != p) return reduce_scatter_ring(comm, bytes);
  BuiltCollective out;
  out.programs.resize(p);
  out.blocks_per_rank = p;
  if (p == 1) return out;
  const auto chunks = even_chunks(bytes, p);
  // Recursive halving: each round exchanges the half of the chunk range
  // the partner is responsible for; the owned range converges to the
  // rank's own chunk.
  const std::size_t rounds = static_cast<std::size_t>(ceil_log2(p));
  for (int r = 0; r < p; ++r) {
    // irecv, isend, waitall and compute per halving round.
    RankProg prog(out.programs[r], r, p, 4 * rounds);
    int lo = 0;
    int hi = p;
    for (int d = p / 2; d >= 1; d /= 2) {
      const int partner = r ^ d;
      const int mid = lo + (hi - lo) / 2;
      const bool upper = (r & d) != 0;
      const int my_lo = upper ? mid : lo;
      const int my_hi = upper ? hi : mid;
      const int pr_lo = upper ? lo : mid;
      const int pr_hi = upper ? mid : hi;
      prog.irecv(partner, kTagReduce,
                 chunk_range_bytes(chunks, my_lo, my_hi),
                 static_cast<std::uint32_t>(my_lo),
                 static_cast<std::uint32_t>(my_hi - my_lo), kCombine);
      prog.isend(partner, kTagReduce,
                 chunk_range_bytes(chunks, pr_lo, pr_hi),
                 static_cast<std::uint32_t>(pr_lo),
                 static_cast<std::uint32_t>(pr_hi - pr_lo));
      prog.waitall();
      prog.compute(chunk_range_bytes(chunks, my_lo, my_hi));
      lo = my_lo;
      hi = my_hi;
    }
  }
  return out;
}

}  // namespace mpicp::sim
