#include "simnet/network.hpp"

#include <algorithm>

namespace mpicp::sim {

Network::Network(const MachineDesc& desc, int nodes, int ppn,
                 Placement placement)
    : desc_(desc), nodes_(nodes), ppn_(ppn), placement_(placement) {
  MPICP_REQUIRE(nodes >= 1 && nodes <= desc.max_nodes,
                "node count outside machine limits");
  MPICP_REQUIRE(ppn >= 1 && ppn <= desc.max_ppn,
                "ppn outside machine limits");
  MPICP_REQUIRE(desc.rails >= 1 && desc.mem_channels >= 1,
                "machine must have at least one rail and one channel");
  node_of_.resize(static_cast<std::size_t>(nodes) * ppn);
  for (int r = 0; r < nodes * ppn; ++r) {
    node_of_[r] = placement == Placement::kBlock ? r / ppn : r % nodes;
  }
  rail_avail_.assign(static_cast<std::size_t>(nodes) * desc.rails, 0.0);
  mem_avail_.assign(static_cast<std::size_t>(nodes) * desc.mem_channels,
                    0.0);
}

void Network::reset() {
  std::fill(rail_avail_.begin(), rail_avail_.end(), 0.0);
  std::fill(mem_avail_.begin(), mem_avail_.end(), 0.0);
}

}  // namespace mpicp::sim
