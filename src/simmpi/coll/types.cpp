#include "simmpi/coll/types.hpp"

#include "support/error.hpp"

namespace mpicp::sim {

std::string to_string(Collective c) {
  switch (c) {
    case Collective::kBcast: return "bcast";
    case Collective::kReduce: return "reduce";
    case Collective::kAllreduce: return "allreduce";
    case Collective::kAlltoall: return "alltoall";
    case Collective::kAllgather: return "allgather";
    case Collective::kScatter: return "scatter";
    case Collective::kGather: return "gather";
  }
  MPICP_RAISE_INTERNAL("unhandled Collective value");
}

Collective collective_from_string(const std::string& name) {
  if (name == "bcast") return Collective::kBcast;
  if (name == "reduce") return Collective::kReduce;
  if (name == "allreduce") return Collective::kAllreduce;
  if (name == "alltoall") return Collective::kAlltoall;
  if (name == "allgather") return Collective::kAllgather;
  if (name == "scatter") return Collective::kScatter;
  if (name == "gather") return Collective::kGather;
  MPICP_RAISE_ARG("unknown collective '" + name + "'");
}

// Name formatting and segment arithmetic, no timed work worth a span.
// mpicp-lint: allow(span-coverage)
Segmentation make_segmentation(std::size_t total_bytes,
                               std::size_t seg_request) {
  Segmentation s;
  if (total_bytes == 0) {
    s.nseg = 1;
    s.seg_bytes = 0;
    s.last_bytes = 0;
    return s;
  }
  std::size_t seg = seg_request;
  if (seg == 0 || seg >= total_bytes) {
    s.nseg = 1;
    s.seg_bytes = total_bytes;
    s.last_bytes = total_bytes;
    return s;
  }
  // Clamp the segment count; grow the effective segment if necessary.
  std::size_t nseg = (total_bytes + seg - 1) / seg;
  if (nseg > kMaxSegments) {
    seg = (total_bytes + kMaxSegments - 1) / kMaxSegments;
    nseg = (total_bytes + seg - 1) / seg;
  }
  s.nseg = static_cast<std::uint32_t>(nseg);
  s.seg_bytes = seg;
  s.last_bytes = total_bytes - (nseg - 1) * seg;
  return s;
}

}  // namespace mpicp::sim
