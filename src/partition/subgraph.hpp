// Materialized per-machine subgraphs.
//
// Partitioning is only useful once each machine holds its piece: the local
// CSR over renumbered vertices, the ghost table (remote endpoints of cut
// edges), and the boundary index used to build message batches. This is
// the loader-side structure Gemini/KnightKing construct from a vertex
// assignment, and the natural hand-off point between this library and a
// real distributed system.
#pragma once

#include <cstdint>
#include <vector>

#include "graph/csr.hpp"
#include "partition/partition.hpp"

namespace bpart::partition {

/// One machine's share of the graph.
///
/// Run-order invariant: every local adjacency run is sorted by local id,
/// so an owned vertex's out-run lists its owned neighbours (ascending
/// global id) followed by its ghost neighbours (ascending global id), with
/// parallel edges adjacent. Merging the two halves recovers the global
/// run's order.
struct Subgraph {
  /// Local ids 0..num_local-1 are owned vertices (in ascending global id
  /// order); ids num_local..num_local+num_ghosts-1 are ghosts (remote
  /// endpoints of cut edges), also ascending by global id.
  graph::Graph local;                     ///< CSR over local ids.
  std::vector<graph::VertexId> global_id; ///< local id -> global id.
  graph::VertexId num_local = 0;
  graph::VertexId num_ghosts = 0;
  /// Owner machine of each ghost (aligned with ghost local ids).
  std::vector<PartId> ghost_owner;
  /// Owned edges whose target is a ghost — the message schedule.
  std::uint64_t cut_edges = 0;

  [[nodiscard]] bool is_ghost(graph::VertexId local_id) const {
    return local_id >= num_local;
  }
};

/// Build every machine's subgraph from a full assignment. Each owned
/// vertex's complete out-adjacency is materialized (targets renumbered,
/// remote targets becoming ghosts); ghost vertices carry no out-edges
/// locally, exactly like Gemini's mirrors.
///
/// Linear time apart from sorting each part's distinct ghosts: parts are
/// built on `threads` workers (contiguous blocks of parts, one n-entry
/// global -> local scratch array per worker), and the output is identical
/// at every thread count. Relies on g's sorted adjacency runs.
std::vector<Subgraph> build_subgraphs(const graph::Graph& g,
                                      const Partition& p,
                                      unsigned threads = 1);

/// Consistency check used by tests and loaders: every global edge appears
/// exactly once across subgraphs, ghost tables are sound, and per-part cut
/// totals match partition::edge_cut_count.
bool verify_subgraphs(const graph::Graph& g, const Partition& p,
                      const std::vector<Subgraph>& subs);

}  // namespace bpart::partition
