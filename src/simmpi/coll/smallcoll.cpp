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

}  // namespace

BuiltCollective reduce_binomial(const Comm& comm, std::size_t bytes,
                                std::size_t seg_bytes, int root) {
  return tree_reduce(comm, binomial_tree(comm.size()), bytes, seg_bytes,
                     root);
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

BuiltCollective gather_binomial(const Comm& comm, std::size_t bytes,
                                int root) {
  const int p = comm.size();
  BuiltCollective out;
  out.programs.resize(p);
  out.blocks_per_rank = p;
  // Vrank v accumulates the contributions of its subtree (contiguous
  // vrank block range [v, v+size)) and ships them upward.
  const VrankMap map = VrankMap::rotation(root, p);
  const Tree tree = binomial_tree(p);
  for (int v = 0; v < p; ++v) {
    const int rank = map.rank_of(v);
    // A recv per child, a send to the parent.
    RankProg prog(out.programs[rank], rank, p,
                  tree[v].children.size() + (tree[v].parent >= 0 ? 1 : 0));
    for (const int c : tree[v].children) {
      prog.recv(map.rank_of(c), kTagGather,
                static_cast<std::uint64_t>(tree[c].subtree_size) * bytes,
                static_cast<std::uint32_t>(c),
                static_cast<std::uint32_t>(tree[c].subtree_size));
    }
    if (tree[v].parent >= 0) {
      prog.send(map.rank_of(tree[v].parent), kTagGather,
                static_cast<std::uint64_t>(tree[v].subtree_size) * bytes,
                static_cast<std::uint32_t>(v),
                static_cast<std::uint32_t>(tree[v].subtree_size));
    }
  }
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

}  // namespace mpicp::sim
