// Reduce, allgather, gather and scatter builders.
//
// These are substrate collectives: the paper's evaluation targets Bcast,
// Allreduce and Alltoall, and the self-consistency guideline checks
// (collbench/guidelines) compare their defaults against these pieces.
#pragma once

#include <cstddef>

#include "simmpi/coll/types.hpp"

namespace mpicp::sim {

BuiltCollective reduce_binomial(const Comm& comm, std::size_t bytes,
                                std::size_t seg_bytes, int root);
BuiltCollective reduce_pipeline(const Comm& comm, std::size_t bytes,
                                std::size_t seg_bytes, int root);

/// Allgather of `bytes` per rank; block j holds rank j's contribution.
BuiltCollective allgather_ring(const Comm& comm, std::size_t bytes);
BuiltCollective allgather_recursive_doubling(const Comm& comm,
                                             std::size_t bytes);

/// Gather of `bytes` per rank to `root`; block j holds the contribution
/// of vrank j = rank (root + j) mod p.
BuiltCollective gather_binomial(const Comm& comm, std::size_t bytes,
                                int root);

/// Scatter of `bytes` per rank from `root` (same vrank block layout).
BuiltCollective scatter_binomial(const Comm& comm, std::size_t bytes,
                                 int root);

}  // namespace mpicp::sim
