// Initial data stores and post-run semantic validation per collective.
//
// Conventions (see datacheck.hpp for the block model):
//  * Bcast:     every block of the root holds the root's contribution
//               bit; afterwards every block of every rank must equal it.
//  * Reduce:    every rank starts with its own bit in every block; the
//               root must end with the full rank mask in every block.
//  * Allreduce: like reduce, but every rank must end with the full mask.
//  * Alltoall:  send block j of rank i holds the token (i -> j); receive
//               block p+j of rank i must end as the token (j -> i).
//  * Allgather: rank i starts with bit i in block i; every rank must end
//               with exactly bit j in every block j.
//  * Scatter /  vrank-indexed rank tokens; see the builder docs in
//    Gather:    smallcoll.hpp.
#pragma once

#include <string>

#include "simmpi/coll/types.hpp"
#include "simmpi/datacheck.hpp"

namespace mpicp::sim {

/// Build the pre-collective store for `coll` with the given block layout.
DataStore make_initial_store(Collective coll, int p, int blocks_per_rank,
                             int root);

/// Check the post-collective store; returns "" on success, else a
/// human-readable description of the first violation.
std::string validate_store(Collective coll, const DataStore& store, int p,
                           int root);

}  // namespace mpicp::sim
