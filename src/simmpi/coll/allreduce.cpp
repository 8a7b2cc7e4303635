#include "simmpi/coll/allreduce.hpp"

#include <algorithm>
#include <vector>

#include "simmpi/coll/pipeline.hpp"
#include "simmpi/coll/trees.hpp"
#include "support/error.hpp"
#include "support/trace.hpp"

namespace mpicp::sim {

namespace {

constexpr std::uint16_t kTagReduce = 20;
constexpr std::uint16_t kTagBcast = 21;
constexpr std::uint16_t kTagFold = 22;    // uses kTagFold(+1)
constexpr std::uint16_t kTagRounds = 24;
constexpr std::uint16_t kTagRs = 25;
constexpr std::uint16_t kTagAg = 26;
constexpr std::uint16_t kTagIntraRed = 27;
constexpr std::uint16_t kTagIntraBc = 28;

/// Whole-buffer tree reduce toward vrank 0: one message per edge
/// covering blocks [0, block_count).
void emit_tree_reduce_whole(ProgramSet& progs, const VrankMap& map,
                            const Tree& tree, std::size_t bytes,
                            std::uint16_t tag, std::uint32_t block_count) {
  for (int v = 0; v < static_cast<int>(tree.size()); ++v) {
    const int rank = map.rank_of(v);
    // A recv and a compute per child, a send to the parent.
    RankProg prog(progs[rank], rank, map.world,
                  2 * tree[v].children.size() + (tree[v].parent >= 0 ? 1 : 0));
    for (const int c : tree[v].children) {
      prog.recv(map.rank_of(c), tag, bytes, 0, block_count, kCombine);
      prog.compute(bytes);
    }
    if (tree[v].parent >= 0) {
      prog.send(map.rank_of(tree[v].parent), tag, bytes, 0, block_count);
    }
  }
}

/// Whole-buffer tree broadcast from vrank 0.
void emit_tree_bcast_whole(ProgramSet& progs, const VrankMap& map,
                           const Tree& tree, std::size_t bytes,
                           std::uint16_t tag, std::uint32_t block_count) {
  for (int v = 0; v < static_cast<int>(tree.size()); ++v) {
    const int rank = map.rank_of(v);
    const std::size_t nc = tree[v].children.size();
    // A recv from the parent, an isend per child, one waitall.
    RankProg prog(progs[rank], rank, map.world,
                  (tree[v].parent >= 0 ? 1 : 0) + nc + (nc > 0 ? 1 : 0));
    if (tree[v].parent >= 0) {
      prog.recv(map.rank_of(tree[v].parent), tag, bytes, 0, block_count);
    }
    for (const int c : tree[v].children) {
      prog.isend(map.rank_of(c), tag, bytes, 0, block_count);
    }
    if (nc > 0) prog.waitall();
  }
}

/// Recursive-doubling allreduce over the group described by `map`,
/// operating on blocks [0, block_count).
void emit_recdbl_allreduce(ProgramSet& progs, const VrankMap& map,
                           std::size_t bytes, std::uint32_t block_count) {
  const int p = map.p;
  if (p == 1) return;
  const int p2 = floor_pow2(p);
  const std::size_t rounds = static_cast<std::size_t>(ceil_log2(p2));
  for (int v = 0; v < p; ++v) {
    const int rank = map.rank_of(v);
    // Fold-in: a send and a recv. Otherwise irecv, isend, waitall and
    // compute per round, plus a recv, compute and send with a fold-in
    // partner.
    RankProg prog(progs[rank], rank, map.world,
                  v >= p2 ? 2 : 4 * rounds + (v + p2 < p ? 3 : 0));
    if (v >= p2) {
      const int partner = map.rank_of(v - p2);
      prog.send(partner, kTagFold, bytes, 0, block_count);
      prog.recv(partner, kTagFold + 1, bytes, 0, block_count);
      continue;
    }
    if (v + p2 < p) {
      prog.recv(map.rank_of(v + p2), kTagFold, bytes, 0, block_count,
                kCombine);
      prog.compute(bytes);
    }
    for (int d = 1; d < p2; d <<= 1) {
      const int partner = map.rank_of(v ^ d);
      prog.irecv(partner, kTagRounds, bytes, 0, block_count, kCombine);
      prog.isend(partner, kTagRounds, bytes, 0, block_count);
      prog.waitall();
      prog.compute(bytes);
    }
    if (v + p2 < p) {
      prog.send(map.rank_of(v + p2), kTagFold + 1, bytes, 0, block_count);
    }
  }
}

/// Rabenseifner allreduce over the group described by `map`. Chunk
/// granularity is floor_pow2(p); chunk c occupies block block_base + c.
void emit_rabenseifner(ProgramSet& progs, const VrankMap& map,
                       std::size_t bytes, std::uint32_t block_base) {
  const int p = map.p;
  if (p == 1) return;
  const int p2 = floor_pow2(p);
  const auto chunks = even_chunks(bytes, p2);
  const std::size_t rounds = static_cast<std::size_t>(ceil_log2(p2));
  for (int v = 0; v < p; ++v) {
    const int rank = map.rank_of(v);
    // Fold-in: a send and a recv. Otherwise irecv, isend, waitall and
    // compute per halving round, irecv, isend and waitall per doubling
    // round, plus a recv, compute and send with a fold-in partner.
    RankProg prog(progs[rank], rank, map.world,
                  v >= p2 ? 2 : 7 * rounds + (v + p2 < p ? 3 : 0));
    if (v >= p2) {
      const int partner = map.rank_of(v - p2);
      prog.send(partner, kTagFold, bytes, block_base, p2);
      prog.recv(partner, kTagFold + 1, bytes, block_base, p2);
      continue;
    }
    if (v + p2 < p) {
      prog.recv(map.rank_of(v + p2), kTagFold, bytes, block_base, p2,
                kCombine);
      prog.compute(bytes);
    }
    // Reduce-scatter by recursive halving: the owned chunk range halves
    // every round and converges to chunk v.
    int lo = 0, hi = p2;
    for (int d = p2 / 2; d >= 1; d /= 2) {
      const int partner = map.rank_of(v ^ d);
      const int mid = lo + (hi - lo) / 2;
      const bool upper = (v & d) != 0;
      const int my_lo = upper ? mid : lo;
      const int my_hi = upper ? hi : mid;
      const int pr_lo = upper ? lo : mid;
      const int pr_hi = upper ? mid : hi;
      prog.irecv(partner, kTagRs, chunk_range_bytes(chunks, my_lo, my_hi),
                 block_base + static_cast<std::uint32_t>(my_lo),
                 static_cast<std::uint32_t>(my_hi - my_lo), kCombine);
      prog.isend(partner, kTagRs, chunk_range_bytes(chunks, pr_lo, pr_hi),
                 block_base + static_cast<std::uint32_t>(pr_lo),
                 static_cast<std::uint32_t>(pr_hi - pr_lo));
      prog.waitall();
      prog.compute(chunk_range_bytes(chunks, my_lo, my_hi));
      lo = my_lo;
      hi = my_hi;
    }
    // Allgather by recursive doubling over the reduced chunks.
    for (int d = 1; d < p2; d <<= 1) {
      const int pv = v ^ d;
      const int partner = map.rank_of(pv);
      const int a = v & ~(d - 1);
      const int b = pv & ~(d - 1);
      prog.irecv(partner, kTagAg, chunk_range_bytes(chunks, b, b + d),
                 block_base + static_cast<std::uint32_t>(b),
                 static_cast<std::uint32_t>(d));
      prog.isend(partner, kTagAg, chunk_range_bytes(chunks, a, a + d),
                 block_base + static_cast<std::uint32_t>(a),
                 static_cast<std::uint32_t>(d));
      prog.waitall();
    }
    if (v + p2 < p) {
      prog.send(map.rank_of(v + p2), kTagFold + 1, bytes, block_base, p2);
    }
  }
}

/// Ring allreduce (reduce-scatter + allgather) over `map`; chunk c
/// occupies block block_base + c. After the reduce-scatter vrank v owns
/// chunk (v+1) mod p, so the allgather runs with a shifted vrank map.
void emit_ring_allreduce(ProgramSet& progs, const VrankMap& map,
                         std::size_t bytes, std::uint32_t block_base) {
  const int p = map.p;
  if (p == 1) return;
  const auto chunks = even_chunks(bytes, p);
  emit_ring_reduce_scatter(progs, map, chunks, kTagRs, block_base);
  emit_ring_allgather(progs, map.rotated(map.p - 1), chunks, kTagAg,
                      block_base);
}

/// Segmented ring allreduce: each of the p chunks is pipelined in
/// sub-segments of at most seg_bytes. Block (c, s) = c * sc + s.
void emit_segmented_ring_allreduce(ProgramSet& progs, const VrankMap& map,
                                   std::size_t bytes, std::size_t seg_bytes,
                                   std::uint32_t* blocks_out) {
  const int p = map.p;
  const auto chunks = even_chunks(bytes, p);
  const Segmentation seg0 = make_segmentation(std::max<std::size_t>(
                                                  chunks[0], 1),
                                              seg_bytes);
  const std::uint32_t sc = seg0.nseg;
  *blocks_out = static_cast<std::uint32_t>(p) * sc;
  if (p == 1) return;
  // Per-chunk sub-segment byte counts.
  std::vector<std::vector<std::uint32_t>> sub(p);
  for (int c = 0; c < p; ++c) {
    sub[c] = even_chunks(chunks[c], static_cast<int>(sc));
  }
  for (int v = 0; v < p; ++v) {
    const int rank = map.rank_of(v);
    // Both phases: p-1 steps of an isend and an irecv per sub-segment and
    // a waitall; the reduce-scatter steps also compute.
    RankProg prog(progs[rank], rank, map.world,
                  std::size_t(p - 1) * (2 * (2 * std::size_t{sc} + 1) + 1));
    const int next = map.rank_of((v + 1) % p);
    const int prev = map.rank_of((v - 1 + p) % p);
    // The allgather phase starts from the reduce-scatter's final
    // ownership (chunk (v+1) mod p), which the index arithmetic below
    // already handles because both phases send chunk (v - k) mod p
    // counting k across the whole 2(p-1)-step schedule.
    for (const bool combine : {true, false}) {
      const std::uint16_t tag = combine ? kTagRs : kTagAg;
      const int shift = combine ? 0 : p - 1;
      for (int k = 0; k < p - 1; ++k) {
        const int scid = (v - k - shift + 2 * p) % p;
        const int rcid = (v - k - 1 - shift + 2 * p) % p;
        for (std::uint32_t s = 0; s < sc; ++s) {
          prog.isend(next, tag, sub[scid][s],
                     static_cast<std::uint32_t>(scid) * sc + s, 1);
          prog.irecv(prev, tag, sub[rcid][s],
                     static_cast<std::uint32_t>(rcid) * sc + s, 1,
                     combine ? kCombine : kNone);
        }
        prog.waitall();
        if (combine) prog.compute(chunks[rcid]);
      }
    }
  }
}

BuiltCollective reduce_then_bcast(const Comm& comm, std::size_t bytes,
                                  std::size_t seg_bytes, const Tree& tree) {
  MPICP_SPAN("sim.allreduce.reduce_then_bcast");
  const Segmentation seg = make_segmentation(bytes, seg_bytes);
  BuiltCollective out;
  out.programs.resize(comm.size());
  out.blocks_per_rank = static_cast<int>(seg.nseg);
  const VrankMap map = VrankMap::rotation(0, comm.size());
  emit_tree_reduce(out.programs, map, tree, seg, kTagReduce);
  emit_tree_bcast(out.programs, map, tree, seg, kTagBcast);
  return out;
}

}  // namespace

BuiltCollective allreduce_linear(const Comm& comm, std::size_t bytes) {
  BuiltCollective out;
  out.programs.resize(comm.size());
  out.blocks_per_rank = 1;
  const VrankMap map = VrankMap::rotation(0, comm.size());
  const Tree tree = flat_tree(comm.size());
  emit_tree_reduce_whole(out.programs, map, tree, bytes, kTagReduce, 1);
  emit_tree_bcast_whole(out.programs, map, tree, bytes, kTagBcast, 1);
  return out;
}

BuiltCollective allreduce_nonoverlapping(const Comm& comm,
                                         std::size_t bytes) {
  BuiltCollective out;
  out.programs.resize(comm.size());
  out.blocks_per_rank = 1;
  const VrankMap map = VrankMap::rotation(0, comm.size());
  const Tree tree = binomial_tree(comm.size());
  emit_tree_reduce_whole(out.programs, map, tree, bytes, kTagReduce, 1);
  emit_tree_bcast_whole(out.programs, map, tree, bytes, kTagBcast, 1);
  return out;
}

BuiltCollective allreduce_recursive_doubling(const Comm& comm,
                                             std::size_t bytes) {
  BuiltCollective out;
  out.programs.resize(comm.size());
  out.blocks_per_rank = 1;
  emit_recdbl_allreduce(out.programs, VrankMap::rotation(0, comm.size()),
                        bytes, 1);
  return out;
}

BuiltCollective allreduce_ring(const Comm& comm, std::size_t bytes) {
  BuiltCollective out;
  out.programs.resize(comm.size());
  out.blocks_per_rank = std::max(comm.size(), 1);
  emit_ring_allreduce(out.programs, VrankMap::rotation(0, comm.size()),
                      bytes, 0);
  return out;
}

BuiltCollective allreduce_segmented_ring(const Comm& comm, std::size_t bytes,
                                         std::size_t seg_bytes) {
  BuiltCollective out;
  out.programs.resize(comm.size());
  std::uint32_t nblocks = 1;
  emit_segmented_ring_allreduce(out.programs,
                                VrankMap::rotation(0, comm.size()), bytes,
                                seg_bytes, &nblocks);
  out.blocks_per_rank = static_cast<int>(std::max<std::uint32_t>(nblocks, 1));
  return out;
}

BuiltCollective allreduce_rabenseifner(const Comm& comm, std::size_t bytes) {
  BuiltCollective out;
  out.programs.resize(comm.size());
  out.blocks_per_rank = floor_pow2(comm.size());
  emit_rabenseifner(out.programs, VrankMap::rotation(0, comm.size()), bytes,
                    0);
  return out;
}

BuiltCollective allreduce_tree(const Comm& comm, std::size_t bytes,
                               std::size_t seg_bytes, AllreduceTreeKind kind,
                               int radix) {
  switch (kind) {
    case AllreduceTreeKind::kBinomial:
      return reduce_then_bcast(comm, bytes, seg_bytes,
                               binomial_tree(comm.size()));
    case AllreduceTreeKind::kBinary:
      return reduce_then_bcast(comm, bytes, seg_bytes,
                               binary_tree(comm.size()));
    case AllreduceTreeKind::kKnomial:
      return reduce_then_bcast(comm, bytes, seg_bytes,
                               knomial_tree(comm.size(), radix));
  }
  MPICP_RAISE_INTERNAL("unhandled AllreduceTreeKind");
}

BuiltCollective allreduce_reduce_scatter_allgather(const Comm& comm,
                                                   std::size_t bytes) {
  const int p = comm.size();
  BuiltCollective out;
  out.programs.resize(p);
  out.blocks_per_rank = std::max(p, 1);
  if (p == 1) return out;
  const auto chunks = even_chunks(bytes, p);
  const VrankMap map = VrankMap::rotation(0, p);
  emit_ring_reduce_scatter(out.programs, map, chunks, kTagRs, 0);
  // After the ring reduce-scatter, vrank v owns chunk (v+1) mod p; run
  // the recursive-doubling allgather with a shifted map so its "vrank w
  // owns chunk w" precondition holds.
  emit_recdbl_allgather(out.programs, map.rotated(map.p - 1), chunks,
                        kTagAg, 0);
  return out;
}

BuiltCollective allreduce_hierarchical(const Comm& comm, std::size_t bytes,
                                       std::size_t seg_bytes,
                                       HierAllreduceInter inter,
                                       bool flat_intra) {
  const int nodes = comm.nodes();
  const int ppn = comm.ppn();
  BuiltCollective out;
  out.programs.resize(comm.size());

  // Determine the block layout of the leader-level phase first.
  std::uint32_t nblocks = 1;
  switch (inter) {
    case HierAllreduceInter::kRecursiveDoubling:
    case HierAllreduceInter::kReduceBcast:
      nblocks = 1;
      break;
    case HierAllreduceInter::kRabenseifner:
      nblocks = static_cast<std::uint32_t>(floor_pow2(nodes));
      break;
    case HierAllreduceInter::kRing:
      nblocks = static_cast<std::uint32_t>(nodes);
      break;
    case HierAllreduceInter::kSegmentedRing: {
      const auto chunks = even_chunks(bytes, nodes);
      nblocks = static_cast<std::uint32_t>(nodes) *
                make_segmentation(std::max<std::size_t>(chunks[0], 1),
                                  seg_bytes)
                    .nseg;
      break;
    }
  }
  out.blocks_per_rank = static_cast<int>(nblocks);

  // Phase 1: local reduce to each node leader (covers all blocks).
  const Tree ltree = flat_intra ? flat_tree(ppn) : binomial_tree(ppn);
  for (int node = 0; node < nodes; ++node) {
    const VrankMap nmap = VrankMap::node_local(comm, node);
    emit_tree_reduce_whole(out.programs, nmap, ltree, bytes, kTagIntraRed,
                           nblocks);
  }

  // Phase 2: allreduce across node leaders.
  const VrankMap lmap = VrankMap::leaders(comm);
  switch (inter) {
    case HierAllreduceInter::kRecursiveDoubling:
      emit_recdbl_allreduce(out.programs, lmap, bytes, nblocks);
      break;
    case HierAllreduceInter::kRabenseifner:
      emit_rabenseifner(out.programs, lmap, bytes, 0);
      break;
    case HierAllreduceInter::kRing:
      emit_ring_allreduce(out.programs, lmap, bytes, 0);
      break;
    case HierAllreduceInter::kSegmentedRing: {
      std::uint32_t check = 0;
      emit_segmented_ring_allreduce(out.programs, lmap, bytes, seg_bytes,
                                    &check);
      MPICP_ASSERT(check == nblocks || nodes == 1,
                   "segmented ring block layout mismatch");
      break;
    }
    case HierAllreduceInter::kReduceBcast: {
      const Tree itree = binomial_tree(nodes);
      emit_tree_reduce_whole(out.programs, lmap, itree, bytes, kTagReduce,
                             nblocks);
      emit_tree_bcast_whole(out.programs, lmap, itree, bytes, kTagBcast,
                            nblocks);
      break;
    }
  }

  // Phase 3: local broadcast from each node leader.
  for (int node = 0; node < nodes; ++node) {
    const VrankMap nmap = VrankMap::node_local(comm, node);
    emit_tree_bcast_whole(out.programs, nmap, ltree, bytes, kTagIntraBc,
                          nblocks);
  }
  return out;
}

}  // namespace mpicp::sim
