#include "simnet/network.hpp"

#include <algorithm>

#include "support/error.hpp"

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

double& Network::pick_earliest(std::vector<double>& pool, int node,
                               std::size_t width) {
  const std::size_t base = static_cast<std::size_t>(node) * width;
  std::size_t best = base;
  for (std::size_t i = base + 1; i < base + width; ++i) {
    if (pool[i] < pool[best]) best = i;
  }
  return pool[best];
}

Transfer Network::schedule_transfer(int src, int dst, std::size_t bytes,
                                    double ready_us) {
  MPICP_ASSERT(src >= 0 && src < num_ranks() && dst >= 0 &&
                   dst < num_ranks(),
               "transfer endpoints out of range");
  Transfer t;
  if (src == dst) {
    // Local self-copy: costs one memcpy, no shared resource contention.
    t.start_us = ready_us;
    t.arrival_us = ready_us + desc_.intra.occupancy_us(bytes);
    return t;
  }
  if (same_node(src, dst)) {
    double& chan =
        pick_earliest(mem_avail_, node_of(src), desc_.mem_channels);
    t.start_us = std::max(ready_us, chan);
    const double occ = desc_.intra.occupancy_us(bytes);
    chan = t.start_us + occ;
    t.arrival_us = t.start_us + occ + desc_.intra.latency_us;
    return t;
  }
  double& src_rail = pick_earliest(rail_avail_, node_of(src), desc_.rails);
  double& dst_rail = pick_earliest(rail_avail_, node_of(dst), desc_.rails);
  t.start_us = std::max({ready_us, src_rail, dst_rail});
  const double occ = desc_.inter.occupancy_us(bytes);
  src_rail = t.start_us + occ;
  dst_rail = t.start_us + occ;
  t.arrival_us = t.start_us + occ + desc_.inter.latency_us;
  return t;
}

}  // namespace mpicp::sim
