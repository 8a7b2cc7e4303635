#include "simmpi/coll/datainit.hpp"

#include <sstream>

#include "support/error.hpp"
#include "support/trace.hpp"

namespace mpicp::sim {

namespace {

Block alltoall_token(int from, int to) {
  return Block{static_cast<std::uint64_t>(from) + 1,
               static_cast<std::uint64_t>(to) + 1};
}

Block rank_token(int rank) {
  return Block{static_cast<std::uint64_t>(rank) + 1};
}

std::string violation(int rank, int block, const std::string& what) {
  std::ostringstream os;
  os << "rank " << rank << ", block " << block << ": " << what;
  return os.str();
}

}  // namespace

DataStore make_initial_store(Collective coll, int p, int blocks_per_rank,
                             int root) {
  MPICP_SPAN("sim.datainit.make_store");
  DataStore store(p, blocks_per_rank);
  switch (coll) {
    case Collective::kBcast:
      for (int b = 0; b < blocks_per_rank; ++b) {
        store.at(root, b) = contribution_of(root);
      }
      break;
    case Collective::kReduce:
    case Collective::kAllreduce:
      for (int r = 0; r < p; ++r) {
        for (int b = 0; b < blocks_per_rank; ++b) {
          store.at(r, b) = contribution_of(r);
        }
      }
      break;
    case Collective::kAlltoall:
      MPICP_REQUIRE(blocks_per_rank >= 2 * p,
                    "alltoall store needs send and receive regions");
      for (int r = 0; r < p; ++r) {
        for (int j = 0; j < p; ++j) {
          store.at(r, j) = alltoall_token(r, j);
        }
      }
      break;
    case Collective::kAllgather:
      MPICP_REQUIRE(blocks_per_rank >= p, "allgather store needs p blocks");
      for (int r = 0; r < p; ++r) store.at(r, r) = contribution_of(r);
      break;
    case Collective::kScatter:
      MPICP_REQUIRE(blocks_per_rank >= p, "scatter store needs p blocks");
      for (int j = 0; j < p; ++j) {
        store.at(root, j) = rank_token((root + j) % p);
      }
      break;
    case Collective::kGather:
      MPICP_REQUIRE(blocks_per_rank >= p, "gather store needs p blocks");
      for (int r = 0; r < p; ++r) {
        store.at(r, (r - root + p) % p) = rank_token(r);
      }
      break;
  }
  return store;
}

std::string validate_store(Collective coll, const DataStore& store, int p,
                           int root) {
  const int nb = store.blocks_per_rank();
  switch (coll) {
    case Collective::kBcast:
      for (int r = 0; r < p; ++r) {
        for (int b = 0; b < nb; ++b) {
          if (!is_exactly_contribution(store.at(r, b), root)) {
            return violation(r, b, "does not hold the root's data");
          }
        }
      }
      return "";
    case Collective::kReduce:
      for (int b = 0; b < nb; ++b) {
        if (!has_all_contributions(store.at(root, b), p)) {
          return violation(root, b, "root misses contributions");
        }
      }
      return "";
    case Collective::kAllreduce:
      for (int r = 0; r < p; ++r) {
        for (int b = 0; b < nb; ++b) {
          if (!has_all_contributions(store.at(r, b), p)) {
            return violation(r, b, "misses contributions");
          }
        }
      }
      return "";
    case Collective::kAlltoall:
      for (int r = 0; r < p; ++r) {
        for (int j = 0; j < p; ++j) {
          if (store.at(r, p + j) != alltoall_token(j, r)) {
            return violation(r, p + j,
                             "wrong payload (expected block " +
                                 std::to_string(r) + " of rank " +
                                 std::to_string(j) + ")");
          }
        }
      }
      return "";
    case Collective::kAllgather:
      for (int r = 0; r < p; ++r) {
        for (int j = 0; j < p; ++j) {
          if (!is_exactly_contribution(store.at(r, j), j)) {
            return violation(r, j, "does not hold rank j's contribution");
          }
        }
      }
      return "";
    case Collective::kScatter:
      for (int j = 0; j < p; ++j) {
        const int r = (root + j) % p;
        if (store.at(r, j) != rank_token(r)) {
          return violation(r, j, "scatter chunk missing or misrouted");
        }
      }
      return "";
    case Collective::kGather:
      for (int j = 0; j < p; ++j) {
        if (store.at(root, j) != rank_token((root + j) % p)) {
          return violation(root, j, "gather chunk missing or misrouted");
        }
      }
      return "";
  }
  MPICP_RAISE_INTERNAL("unhandled Collective in validate_store");
}

}  // namespace mpicp::sim
