#include "simmpi/coll/pipeline.hpp"

#include <algorithm>

#include "support/error.hpp"
#include "support/trace.hpp"

namespace mpicp::sim {

std::vector<std::uint32_t> even_chunks(std::size_t total, int nchunks) {
  MPICP_REQUIRE(nchunks >= 1, "need at least one chunk");
  std::vector<std::uint32_t> chunks(nchunks);
  const std::size_t base = total / static_cast<std::size_t>(nchunks);
  const std::size_t rem = total % static_cast<std::size_t>(nchunks);
  for (int c = 0; c < nchunks; ++c) {
    chunks[c] = static_cast<std::uint32_t>(
        base + (static_cast<std::size_t>(c) < rem ? 1 : 0));
  }
  return chunks;
}

std::uint64_t chunk_range_bytes(const std::vector<std::uint32_t>& chunks,
                                int begin, int end) {
  std::uint64_t sum = 0;
  for (int c = begin; c < end; ++c) sum += chunks[c];
  return sum;
}

int floor_pow2(int p) {
  MPICP_REQUIRE(p >= 1, "floor_pow2 of non-positive value");
  int v = 1;
  while (v * 2 <= p) v *= 2;
  return v;
}

int ceil_log2(int p) {
  MPICP_REQUIRE(p >= 1, "ceil_log2 of non-positive value");
  int l = 0;
  int v = 1;
  while (v < p) {
    v *= 2;
    ++l;
  }
  return l;
}

// Receive prefetch depth of the segmented pipelines. Two outstanding
// receives (double buffering) hide the rendezvous handshake of segment
// s+1 behind the transfer of segment s, as real pipelined
// implementations do.
constexpr std::uint32_t kPipelineWindow = 2;

void emit_tree_bcast(ProgramSet& progs, const VrankMap& map,
                     const Tree& tree, const Segmentation& seg,
                     std::uint16_t tag, std::uint32_t block_base) {
  MPICP_SPAN("sim.pipeline.tree_bcast");
  const int p = static_cast<int>(tree.size());
  const std::uint32_t w = std::min(kPipelineWindow, seg.nseg);
  std::vector<int> kids;  // child ranks, mapped once per vrank
  for (int v = 0; v < p; ++v) {
    const int rank = map.rank_of(v);
    const TreeNode& node = tree[v];
    const int parent =
        node.parent >= 0 ? map.rank_of(node.parent) : -1;
    map.ranks_of(node.children, kids);
    // From the parent: an irecv and a waitone per segment. To the
    // children: an isend per child per segment, then one waitall.
    RankProg prog(progs[rank], rank, map.world,
                  (parent >= 0 ? 2 * std::size_t{seg.nseg} : 0) +
                      kids.size() * seg.nseg + (kids.empty() ? 0 : 1));
    if (parent >= 0) {
      for (std::uint32_t s = 0; s < w; ++s) {
        prog.irecv(parent, tag, seg.bytes_of(s), block_base + s, 1);
      }
    }
    for (std::uint32_t s = 0; s < seg.nseg; ++s) {
      if (parent >= 0) {
        prog.waitone();  // completes segment s
        if (s + w < seg.nseg) {
          prog.irecv(parent, tag, seg.bytes_of(s + w), block_base + s + w,
                     1);
        }
      }
      for (const int c : kids) {
        prog.isend(c, tag, seg.bytes_of(s), block_base + s, 1);
      }
    }
    if (!kids.empty()) prog.waitall();
  }
}

void emit_tree_reduce(ProgramSet& progs, const VrankMap& map,
                      const Tree& tree, const Segmentation& seg,
                      std::uint16_t tag, std::uint32_t block_base) {
  const int p = static_cast<int>(tree.size());
  const std::uint32_t w = std::min(kPipelineWindow, seg.nseg);
  std::vector<int> kids;  // child ranks, mapped once per vrank
  for (int v = 0; v < p; ++v) {
    const int rank = map.rank_of(v);
    const TreeNode& node = tree[v];
    const int parent =
        node.parent >= 0 ? map.rank_of(node.parent) : -1;
    map.ranks_of(node.children, kids);
    const std::size_t nc = kids.size();
    // Per child per segment: an irecv, a waitone and a compute. To the
    // parent: an isend per segment, then one waitall.
    RankProg prog(progs[rank], rank, map.world,
                  3 * nc * seg.nseg + (parent >= 0 ? seg.nseg + 1 : 0));
    // Prefetch the children's contributions for the first w segments.
    for (std::uint32_t s = 0; s < w && nc > 0; ++s) {
      for (const int c : kids) {
        prog.irecv(c, tag, seg.bytes_of(s), block_base + s, 1, kCombine);
      }
    }
    for (std::uint32_t s = 0; s < seg.nseg; ++s) {
      const std::size_t bytes = seg.bytes_of(s);
      for (std::size_t i = 0; i < nc; ++i) {
        prog.waitone();  // one child's segment s
        prog.compute(bytes);
      }
      if (s + w < seg.nseg) {
        for (const int c : kids) {
          prog.irecv(c, tag, seg.bytes_of(s + w), block_base + s + w, 1,
                     kCombine);
        }
      }
      if (parent >= 0) prog.isend(parent, tag, bytes, block_base + s, 1);
    }
    if (parent >= 0) prog.waitall();
  }
}

void emit_binomial_scatter(ProgramSet& progs, const VrankMap& map,
                           const Tree& tree,
                           const std::vector<std::uint32_t>& chunk_bytes,
                           std::uint16_t tag, std::uint32_t block_base) {
  const int p = static_cast<int>(tree.size());
  MPICP_REQUIRE(static_cast<int>(chunk_bytes.size()) == p,
                "one chunk per vrank required");
  for (int v = 0; v < p; ++v) {
    const int rank = map.rank_of(v);
    const TreeNode& node = tree[v];
    const std::size_t nc = node.children.size();
    // A recv from the parent, an isend per child, one waitall.
    RankProg prog(progs[rank], rank, map.world,
                  (node.parent >= 0 ? 1 : 0) + nc + (nc > 0 ? 1 : 0));
    if (node.parent >= 0) {
      prog.recv(map.rank_of(node.parent), tag,
                chunk_range_bytes(chunk_bytes, v, v + node.subtree_size),
                block_base + static_cast<std::uint32_t>(v),
                static_cast<std::uint32_t>(node.subtree_size));
    }
    for (const int c : node.children) {
      // Subtrees of our tree constructions are contiguous vrank ranges.
      prog.isend(map.rank_of(c), tag,
                 chunk_range_bytes(chunk_bytes, c,
                                   c + tree[c].subtree_size),
                 block_base + static_cast<std::uint32_t>(c),
                 static_cast<std::uint32_t>(tree[c].subtree_size));
    }
    if (nc > 0) prog.waitall();
  }
}

void emit_ring_allgather(ProgramSet& progs, const VrankMap& map,
                         const std::vector<std::uint32_t>& chunk_bytes,
                         std::uint16_t tag, std::uint32_t block_base) {
  const int p = map.p;
  if (p == 1) return;
  for (int v = 0; v < p; ++v) {
    const int rank = map.rank_of(v);
    // p-1 steps of isend, recv, waitall.
    RankProg prog(progs[rank], rank, map.world, 3 * std::size_t(p - 1));
    const int next = map.rank_of((v + 1) % p);
    const int prev = map.rank_of((v - 1 + p) % p);
    for (int k = 0; k < p - 1; ++k) {
      const int sc = (v - k + p) % p;
      const int rc = (v - k - 1 + p) % p;
      prog.isend(next, tag, chunk_bytes[sc],
                 block_base + static_cast<std::uint32_t>(sc), 1);
      prog.recv(prev, tag, chunk_bytes[rc],
                block_base + static_cast<std::uint32_t>(rc), 1);
      prog.waitall();
    }
  }
}

void emit_ring_reduce_scatter(ProgramSet& progs, const VrankMap& map,
                              const std::vector<std::uint32_t>& chunk_bytes,
                              std::uint16_t tag, std::uint32_t block_base) {
  const int p = map.p;
  if (p == 1) return;
  for (int v = 0; v < p; ++v) {
    const int rank = map.rank_of(v);
    // p-1 steps of isend, recv, compute, waitall.
    RankProg prog(progs[rank], rank, map.world, 4 * std::size_t(p - 1));
    const int next = map.rank_of((v + 1) % p);
    const int prev = map.rank_of((v - 1 + p) % p);
    for (int k = 0; k < p - 1; ++k) {
      const int sc = (v - k + p) % p;
      const int rc = (v - k - 1 + p) % p;
      prog.isend(next, tag, chunk_bytes[sc],
                 block_base + static_cast<std::uint32_t>(sc), 1);
      prog.recv(prev, tag, chunk_bytes[rc],
                block_base + static_cast<std::uint32_t>(rc), 1, kCombine);
      prog.compute(chunk_bytes[rc]);
      prog.waitall();
    }
  }
}

void emit_recdbl_allgather(ProgramSet& progs, const VrankMap& map,
                           const std::vector<std::uint32_t>& chunk_bytes,
                           std::uint16_t tag, std::uint32_t block_base) {
  const int p = map.p;
  if (p == 1) return;
  const int p2 = floor_pow2(p);
  const std::uint64_t total = chunk_range_bytes(chunk_bytes, 0, p);
  // Whether the fold-in shadow of layer-0 base `base` is non-empty.
  const auto has_shadow = [&](int base) { return base + p2 < p; };
  for (int v = 0; v < p; ++v) {
    const int rank = map.rank_of(v);
    // Fold-in: a send and a recv. Otherwise a recv and a send around the
    // rounds if v has a fold-in partner, and per round two irecvs and
    // two isends (fewer without shadows) and a waitall.
    std::size_t num_ops = 2;
    if (v < p2) {
      num_ops = has_shadow(v) ? 2 : 0;
      for (int d = 1; d < p2; d <<= 1) {
        num_ops += 3 + (has_shadow(v & ~(d - 1)) ? 1 : 0) +
                   (has_shadow((v ^ d) & ~(d - 1)) ? 1 : 0);
      }
    }
    RankProg prog(progs[rank], rank, map.world, num_ops);
    if (v >= p2) {
      // Fold-in: ship our chunk to the partner, collect the full result.
      const int partner = map.rank_of(v - p2);
      prog.send(partner, tag, chunk_bytes[v],
                block_base + static_cast<std::uint32_t>(v), 1);
      prog.recv(partner, static_cast<std::uint16_t>(tag + 1), total,
                block_base, static_cast<std::uint32_t>(p));
      continue;
    }
    if (v + p2 < p) {
      prog.recv(map.rank_of(v + p2), tag, chunk_bytes[v + p2],
                block_base + static_cast<std::uint32_t>(v + p2), 1);
    }
    for (int d = 1; d < p2; d <<= 1) {
      const int pv = v ^ d;
      const int partner = map.rank_of(pv);
      const int a = v & ~(d - 1);   // my layer-0 base
      const int b = pv & ~(d - 1);  // partner's layer-0 base
      // Layer 0: chunks [base, base+d); layer 1: the fold-in shadow
      // [base+p2, min(base+d+p2, p)). Message order (layer 0 first) is
      // identical on both sides, so FIFO matching pairs them correctly.
      const int a1_end = std::min(a + d + p2, p);
      const int b1_end = std::min(b + d + p2, p);
      prog.irecv(partner, tag, chunk_range_bytes(chunk_bytes, b, b + d),
                 block_base + static_cast<std::uint32_t>(b),
                 static_cast<std::uint32_t>(d));
      if (has_shadow(b)) {
        prog.irecv(partner, tag,
                   chunk_range_bytes(chunk_bytes, b + p2, b1_end),
                   block_base + static_cast<std::uint32_t>(b + p2),
                   static_cast<std::uint32_t>(b1_end - b - p2));
      }
      prog.isend(partner, tag, chunk_range_bytes(chunk_bytes, a, a + d),
                 block_base + static_cast<std::uint32_t>(a),
                 static_cast<std::uint32_t>(d));
      if (has_shadow(a)) {
        prog.isend(partner, tag,
                   chunk_range_bytes(chunk_bytes, a + p2, a1_end),
                   block_base + static_cast<std::uint32_t>(a + p2),
                   static_cast<std::uint32_t>(a1_end - a - p2));
      }
      prog.waitall();
    }
    if (v + p2 < p) {
      prog.send(map.rank_of(v + p2), static_cast<std::uint16_t>(tag + 1),
                total, block_base, static_cast<std::uint32_t>(p));
    }
  }
}

}  // namespace mpicp::sim
