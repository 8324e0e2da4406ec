// Random-walk engine on the dist:: measured runtime. Each machine owns the
// walkers currently on its vertices and advances them greedily (KnightKing's
// compute phase); a walker crossing a partition boundary ships as one
// Walker struct over a typed Channel<Walker> batch. There are no
// walker-count or length limits, and the returned cluster::RunReport
// carries measured per-machine compute/wait seconds and walker bytes
// shipped, so walk workloads plot on the same axes as the cost-model
// simulations (fig13's measured column).
//
// Every step draws from the counter-based stream keyed on
// (seed, walker, step), the same streams the exec-core run_walks path uses,
// so a walker's trajectory is a pure function of the seed: step totals and
// message-walk counts are identical across machine counts and thread counts,
// and identical to run_walks() under the keyed mode.
#pragma once

#include <cstdint>

#include "cluster/bsp.hpp"
#include "exec/exec_config.hpp"
#include "graph/csr.hpp"
#include "partition/partition.hpp"

namespace bpart::walk {

struct ThreadedWalkConfig {
  unsigned length = 4;  ///< Steps per walker.
  unsigned walks_per_vertex = 1;
  std::uint64_t seed = 1;
  std::size_t max_supersteps = 100000;
  /// Exec-core routing for run_simple_walks_dist: resolved_threads() >= 1
  /// advances each machine's walker queue on a per-machine Executor over
  /// over_items chunks, with outgoing walkers merged in chunk order before
  /// the channel flush — bitwise identical to the sequential drain.
  exec::ExecConfig exec;
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
