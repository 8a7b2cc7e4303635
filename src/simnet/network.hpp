// Resource-tracking network model.
//
// Maps ranks onto (node, core) slots and schedules point-to-point
// transfers against finite per-node resources: NIC rails for inter-node
// traffic, memory copy channels for intra-node traffic. Resource
// occupancy is tracked as next-available times, so concurrent transfers
// through the same node serialize — this is what makes, e.g., the linear
// broadcast collapse at scale while tree algorithms keep all NICs busy.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "simnet/machine.hpp"
#include "support/error.hpp"

namespace mpicp::sim {

/// One scheduled point-to-point transfer.
struct Transfer {
  double start_us = 0.0;    ///< when the wire/channel transfer begins
  double arrival_us = 0.0;  ///< when the last byte reaches the receiver
};

/// Rank-to-node placement policy (SLURM's -m block / -m cyclic).
enum class Placement {
  kBlock,   ///< rank r on node r / ppn (the default; the paper's setup)
  kCyclic,  ///< rank r on node r mod nodes (round-robin)
};

/// Process-to-node placement plus transfer scheduling for one job
/// allocation (`nodes` compute nodes, `ppn` processes per node).
class Network {
 public:
  Network(const MachineDesc& desc, int nodes, int ppn,
          Placement placement = Placement::kBlock);

  const MachineDesc& machine() const { return desc_; }
  int num_nodes() const { return nodes_; }
  int ppn() const { return ppn_; }
  int num_ranks() const { return nodes_ * ppn_; }

  Placement placement() const { return placement_; }

  int node_of(int rank) const { return node_of_[rank]; }
  bool same_node(int a, int b) const { return node_of(a) == node_of(b); }

  /// Channel parameters that apply between two ranks.
  const LinkParams& link(int src, int dst) const {
    return same_node(src, dst) ? desc_.intra : desc_.inter;
  }

  /// Reserve resources for a transfer of `bytes` bytes from rank `src`
  /// to rank `dst` that is ready to start at `ready_us`. Mutates the
  /// per-node resource availability times. Inline: the executor calls
  /// it once per simulated message.
  Transfer schedule_transfer(int src, int dst, std::size_t bytes,
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
    const int src_node = node_of(src);
    const int dst_node = node_of(dst);
    if (src_node == dst_node) {
      double& chan = pick_earliest(mem_avail_, src_node, desc_.mem_channels);
      t.start_us = std::max(ready_us, chan);
      const double occ = desc_.intra.occupancy_us(bytes);
      chan = t.start_us + occ;
      t.arrival_us = t.start_us + occ + desc_.intra.latency_us;
      return t;
    }
    double& src_rail = pick_earliest(rail_avail_, src_node, desc_.rails);
    double& dst_rail = pick_earliest(rail_avail_, dst_node, desc_.rails);
    t.start_us = std::max({ready_us, src_rail, dst_rail});
    const double occ = desc_.inter.occupancy_us(bytes);
    src_rail = t.start_us + occ;
    dst_rail = t.start_us + occ;
    t.arrival_us = t.start_us + occ + desc_.inter.latency_us;
    return t;
  }

  /// Reset all resource availability to time zero (start of a new run).
  void reset();

 private:
  /// The earliest-free of the `width` resources of `node` in `pool`
  /// (the first one on ties).
  static double& pick_earliest(std::vector<double>& pool, int node,
                               std::size_t width) {
    const std::size_t base = static_cast<std::size_t>(node) * width;
    std::size_t best = base;
    for (std::size_t i = base + 1; i < base + width; ++i) {
      if (pool[i] < pool[best]) best = i;
    }
    return pool[best];
  }

  MachineDesc desc_;
  int nodes_;
  int ppn_;
  Placement placement_;
  // Rank -> node under the placement, so the per-message link() and
  // same_node() do no division.
  std::vector<std::int32_t> node_of_;
  // Flattened [node][rail] and [node][channel] next-available times.
  std::vector<double> rail_avail_;
  std::vector<double> mem_avail_;
};

}  // namespace mpicp::sim
