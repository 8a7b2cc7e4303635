#include "simmpi/coll/bcast.hpp"

#include <algorithm>
#include <vector>

#include "simmpi/coll/pipeline.hpp"
#include "simmpi/coll/trees.hpp"
#include "support/trace.hpp"

namespace mpicp::sim {

namespace {

constexpr std::uint16_t kTagTree = 10;
constexpr std::uint16_t kTagScatter = 11;
constexpr std::uint16_t kTagAllgather = 12;  // uses kTagAllgather(+1)
constexpr std::uint16_t kTagExchange = 14;
constexpr std::uint16_t kTagIntra = 15;

BuiltCollective tree_bcast(const Comm& comm, const Tree& tree,
                           std::size_t bytes, std::size_t seg_bytes,
                           int root) {
  MPICP_SPAN("sim.bcast.tree");
  const Segmentation seg = make_segmentation(bytes, seg_bytes);
  BuiltCollective out;
  out.programs.resize(comm.size());
  out.blocks_per_rank = static_cast<int>(seg.nseg);
  emit_tree_bcast(out.programs, VrankMap::rotation(root, comm.size()), tree,
                  seg, kTagTree);
  return out;
}

BuiltCollective scatter_then_allgather(const Comm& comm, std::size_t bytes,
                                       int root, bool ring) {
  const int p = comm.size();
  BuiltCollective out;
  out.programs.resize(p);
  out.blocks_per_rank = p;
  const auto chunks = even_chunks(bytes, p);
  const VrankMap map = VrankMap::rotation(root, p);
  emit_binomial_scatter(out.programs, map, binomial_tree(p), chunks,
                        kTagScatter);
  if (ring) {
    emit_ring_allgather(out.programs, map, chunks, kTagAllgather);
  } else {
    emit_recdbl_allgather(out.programs, map, chunks, kTagAllgather);
  }
  return out;
}

}  // namespace

BuiltCollective bcast_linear(const Comm& comm, std::size_t bytes, int root) {
  return tree_bcast(comm, flat_tree(comm.size()), bytes, 0, root);
}

BuiltCollective bcast_chain(const Comm& comm, std::size_t bytes,
                            std::size_t seg_bytes, int nchains, int root) {
  return tree_bcast(comm, chain_tree(comm.size(), nchains), bytes, seg_bytes,
                    root);
}

BuiltCollective bcast_pipeline(const Comm& comm, std::size_t bytes,
                               std::size_t seg_bytes, int root) {
  return tree_bcast(comm, chain_tree(comm.size(), 1), bytes, seg_bytes,
                    root);
}

BuiltCollective bcast_binary(const Comm& comm, std::size_t bytes,
                             std::size_t seg_bytes, int root) {
  return tree_bcast(comm, binary_tree(comm.size()), bytes, seg_bytes, root);
}

BuiltCollective bcast_binomial(const Comm& comm, std::size_t bytes,
                               std::size_t seg_bytes, int root) {
  return tree_bcast(comm, binomial_tree(comm.size()), bytes, seg_bytes,
                    root);
}

BuiltCollective bcast_knomial(const Comm& comm, std::size_t bytes,
                              std::size_t seg_bytes, int radix, int root) {
  return tree_bcast(comm, knomial_tree(comm.size(), radix), bytes, seg_bytes,
                    root);
}

BuiltCollective bcast_scatter_allgather(const Comm& comm, std::size_t bytes,
                                        int root) {
  return scatter_then_allgather(comm, bytes, root, /*ring=*/false);
}

BuiltCollective bcast_scatter_ring_allgather(const Comm& comm,
                                             std::size_t bytes, int root) {
  return scatter_then_allgather(comm, bytes, root, /*ring=*/true);
}

BuiltCollective bcast_split_binary(const Comm& comm, std::size_t bytes,
                                   std::size_t seg_bytes, int root) {
  const int p = comm.size();
  // The split variant needs both subtrees populated; below three ranks it
  // degenerates to the plain binary tree (as Open MPI's does).
  if (p < 3 || bytes < 2) {
    return tree_bcast(comm, binary_tree(p), bytes, seg_bytes, root);
  }
  const VrankMap map = VrankMap::rotation(root, p);
  const Tree tree = binary_tree(p);

  // Split the payload in two halves; the subtree under vrank 1 pipelines
  // half A, the subtree under vrank 2 half B. Afterwards every non-root
  // rank swaps its missing half with a partner from the other subtree.
  const std::size_t bytes_a = (bytes + 1) / 2;
  const std::size_t bytes_b = bytes - bytes_a;
  const Segmentation seg_a = make_segmentation(bytes_a, seg_bytes);
  const Segmentation seg_b = make_segmentation(bytes_b, seg_bytes);
  const std::uint32_t blocks_a = seg_a.nseg;
  const std::uint32_t blocks_b = seg_b.nseg;

  BuiltCollective out;
  out.programs.resize(p);
  out.blocks_per_rank = static_cast<int>(blocks_a + blocks_b);

  // half[v]: 0 for the subtree under vrank 1, 1 under vrank 2.
  std::vector<int> half(p, -1);
  half[0] = -1;
  if (p > 1) half[1] = 0;
  if (p > 2) half[2] = 1;
  for (int v = 3; v < p; ++v) half[v] = half[tree[v].parent];

  // Tree phase: every rank moves only its half. The root sends every
  // segment of its child's half to each child, then waits once.
  {
    RankProg root_prog(out.programs[map.rank_of(0)], map.rank_of(0), p,
                       seg_a.nseg + seg_b.nseg + 1);
    for (std::uint32_t s = 0; s < seg_a.nseg || s < seg_b.nseg; ++s) {
      for (const int c : tree[0].children) {
        const Segmentation& cs = half[c] == 1 ? seg_b : seg_a;
        if (s >= cs.nseg) continue;
        const std::uint32_t cbase = half[c] == 1 ? blocks_a : 0;
        root_prog.isend(map.rank_of(c), kTagTree, cs.bytes_of(s), cbase + s,
                        1);
      }
    }
    root_prog.waitall();
  }
  std::vector<int> kids;  // child ranks, mapped once per vrank
  for (int v = 1; v < p; ++v) {
    const int rank = map.rank_of(v);
    const Segmentation& seg = half[v] == 1 ? seg_b : seg_a;
    const std::uint32_t base = half[v] == 1 ? blocks_a : 0;
    map.ranks_of(tree[v].children, kids);
    // An irecv and a waitone per segment from the parent, an isend per
    // child per segment, one waitall.
    RankProg prog(out.programs[rank], rank, p,
                  (2 + kids.size()) * seg.nseg + (kids.empty() ? 0 : 1));
    const int parent = map.rank_of(tree[v].parent);
    const std::uint32_t w = std::min(2u, seg.nseg);  // double buffering
    for (std::uint32_t s = 0; s < w; ++s) {
      prog.irecv(parent, kTagTree, seg.bytes_of(s), base + s, 1);
    }
    for (std::uint32_t s = 0; s < seg.nseg; ++s) {
      prog.waitone();
      if (s + w < seg.nseg) {
        prog.irecv(parent, kTagTree, seg.bytes_of(s + w), base + s + w, 1);
      }
      for (const int c : kids) {
        prog.isend(c, kTagTree, seg.bytes_of(s), base + s, 1);
      }
    }
    if (!kids.empty()) prog.waitall();
  }

  // Exchange phase: left-subtree ranks obtain half B from right-subtree
  // partners and vice versa. With unequal subtree sizes some ranks serve
  // several partners (round-robin), exactly once per needy rank.
  std::vector<int> left, right;
  for (int v = 1; v < p; ++v) (half[v] == 0 ? left : right).push_back(v);
  struct Xfer {
    int from, to;
    bool half_b;  // payload is half B (else half A)
  };
  std::vector<Xfer> xfers;
  for (std::size_t i = 0; i < left.size(); ++i) {
    xfers.push_back({right[i % right.size()], left[i], true});
  }
  for (std::size_t j = 0; j < right.size(); ++j) {
    xfers.push_back({left[j % left.size()], right[j], false});
  }
  // Emit receives before sends per rank so every rank's nonblocking ops
  // are posted before its waitall; enumeration order is shared by sender
  // and receiver, so FIFO matching is consistent. Every non-root rank
  // receives once and so ends with a waitall.
  std::vector<std::size_t> xfer_ops(p, 1);
  for (const Xfer& x : xfers) {
    ++xfer_ops[x.to];
    ++xfer_ops[x.from];
  }
  for (int v = 1; v < p; ++v) {
    const int rank = map.rank_of(v);
    RankProg prog(out.programs[rank], rank, p, xfer_ops[v]);
    for (const Xfer& x : xfers) {
      if (x.to == v) {
        prog.irecv(map.rank_of(x.from), kTagExchange,
                   x.half_b ? bytes_b : bytes_a, x.half_b ? blocks_a : 0,
                   x.half_b ? blocks_b : blocks_a);
      }
    }
    for (const Xfer& x : xfers) {
      if (x.from == v) {
        prog.isend(map.rank_of(x.to), kTagExchange,
                   x.half_b ? bytes_b : bytes_a, x.half_b ? blocks_a : 0,
                   x.half_b ? blocks_b : blocks_a);
      }
    }
    prog.waitall();
  }
  return out;
}

BuiltCollective bcast_hierarchical(const Comm& comm, std::size_t bytes,
                                   std::size_t seg_bytes,
                                   HierBcastInter inter, HierBcastIntra intra,
                                   int root) {
  MPICP_REQUIRE(root == 0,
                "hierarchical broadcast requires the root to be a node "
                "leader (rank 0)");
  const int nodes = comm.nodes();
  const int ppn = comm.ppn();
  BuiltCollective out;
  out.programs.resize(comm.size());

  const VrankMap lmap = VrankMap::leaders(comm);
  std::uint32_t nblocks = 1;
  switch (inter) {
    case HierBcastInter::kBinomial: {
      const Segmentation seg = make_segmentation(bytes, seg_bytes);
      nblocks = seg.nseg;
      emit_tree_bcast(out.programs, lmap, binomial_tree(nodes), seg,
                      kTagTree);
      break;
    }
    case HierBcastInter::kPipeline: {
      const Segmentation seg = make_segmentation(bytes, seg_bytes);
      nblocks = seg.nseg;
      emit_tree_bcast(out.programs, lmap, chain_tree(nodes, 1), seg,
                      kTagTree);
      break;
    }
    case HierBcastInter::kScatterAllgather: {
      nblocks = static_cast<std::uint32_t>(nodes);
      const auto chunks = even_chunks(bytes, nodes);
      emit_binomial_scatter(out.programs, lmap, binomial_tree(nodes), chunks,
                            kTagScatter);
      emit_recdbl_allgather(out.programs, lmap, chunks, kTagAllgather);
      break;
    }
  }
  out.blocks_per_rank = static_cast<int>(nblocks);

  // Intra-node fan-out: the leader forwards the whole payload locally.
  // One message per local child covering every block.
  for (int node = 0; node < nodes; ++node) {
    const VrankMap nmap = VrankMap::node_local(comm, node);
    const Tree ltree = intra == HierBcastIntra::kBinomial
                           ? binomial_tree(ppn)
                           : flat_tree(ppn);
    for (int v = 0; v < ppn; ++v) {
      const int rank = nmap.rank_of(v);
      const std::size_t nc = ltree[v].children.size();
      RankProg prog(out.programs[rank], rank, comm.size(),
                    (ltree[v].parent >= 0 ? 1 : 0) + nc + (nc > 0 ? 1 : 0));
      if (ltree[v].parent >= 0) {
        prog.recv(nmap.rank_of(ltree[v].parent), kTagIntra, bytes, 0,
                  nblocks);
      }
      for (const int c : ltree[v].children) {
        prog.isend(nmap.rank_of(c), kTagIntra, bytes, 0, nblocks);
      }
      if (nc > 0) prog.waitall();
    }
  }
  return out;
}

}  // namespace mpicp::sim
