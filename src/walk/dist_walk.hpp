// Random-walk engine on the dist:: measured runtime. Each machine owns the
// walkers currently on its vertices and advances them greedily (KnightKing's
// compute phase), reading the out-runs of the vertices it owns straight from
// the global CSR; a walker is (id, step, global vertex), and one crossing a
// partition boundary ships as that Walker struct over a typed
// Channel<Walker> batch. No per-machine subgraph is built. There are no
// walker-count or length limits, and the returned cluster::RunReport
// carries measured per-machine compute/wait seconds and walker bytes
// shipped, so walk workloads plot on the same axes as the cost-model
// simulations (fig13's measured column).
//
// Every step draws through SimpleRandomWalk::step on the counter-based
// stream keyed on (seed, walker, step), the draw run_walks makes in its
// keyed mode, so a walker's trajectory is a pure function of the seed:
// step totals and message-walk counts are identical across machine counts
// and BPART_THREADS, and identical to run_walks() under the keyed mode.
// Each machine drains its queue sequentially, in arrival order.
#pragma once

#include <cstdint>

#include "cluster/bsp.hpp"
#include "graph/csr.hpp"
#include "partition/partition.hpp"

namespace bpart::walk {

struct ThreadedWalkConfig {
  unsigned length = 4;  ///< Steps per walker.
  unsigned walks_per_vertex = 1;
  std::uint64_t seed = 1;
  std::size_t max_supersteps = 100000;
};

struct DistWalkReport {
  std::uint64_t total_steps = 0;
  std::uint64_t message_walks = 0;  ///< Walkers shipped across machines.
  std::size_t supersteps = 0;
  cluster::RunReport run;  ///< Measured wall-clock, not cost-model.
};

/// Runs walks_per_vertex × |V| fixed-length uniform walks, one machine per
/// partition, over the dist runtime.
DistWalkReport run_simple_walks_dist(const graph::Graph& g,
                                     const partition::Partition& parts,
                                     const ThreadedWalkConfig& cfg = {});

}  // namespace bpart::walk
