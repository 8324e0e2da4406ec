#include "partition/subgraph.hpp"

#include <algorithm>
#include <span>
#include <utility>

#include "obs/trace.hpp"
#include "partition/metrics.hpp"
#include "util/check.hpp"
#include "util/thread_pool.hpp"

namespace bpart::partition {

namespace {

constexpr graph::VertexId kUnmapped = graph::kInvalidVertex;

/// One part's state between the two parallel passes of build_subgraphs.
struct PartBuild {
  std::span<const graph::VertexId> owned;  ///< Ascending global id.
  std::vector<graph::VertexId> ghosts;     ///< Sorted distinct remote targets.
  graph::EdgeId num_edges = 0;             ///< Σ out-degree of owned.
  std::vector<graph::EdgeId> out_off, in_off;
  std::vector<graph::VertexId> out_tgt, in_tgt;
};

/// Pass 1: the part's ghosts, cut edges and edge count. `local_of` is the
/// worker's n-entry scratch, all kUnmapped on entry and on return; here any
/// other value just marks a ghost as seen.
void find_ghosts(const graph::Graph& g, const Partition& p, PartId part,
                 PartBuild& b, Subgraph& sub,
                 std::vector<graph::VertexId>& local_of) {
  for (const graph::VertexId v : b.owned) {
    b.num_edges += g.out_degree(v);
    for (const graph::VertexId u : g.out_neighbors(v)) {
      if (p[u] == part) continue;
      ++sub.cut_edges;
      if (local_of[u] == kUnmapped) {
        local_of[u] = 0;
        b.ghosts.push_back(u);
      }
    }
  }
  for (const graph::VertexId u : b.ghosts) local_of[u] = kUnmapped;
  std::sort(b.ghosts.begin(), b.ghosts.end());
}

/// Pass 2: fills the arrays the caller sized, then adopts them as the
/// local CSR. Same `local_of` contract as find_ghosts.
void fill_part(const graph::Graph& g, const Partition& p, PartBuild& b,
               Subgraph& sub, std::vector<graph::VertexId>& local_of) {
  const graph::VertexId num_local = sub.num_local;
  const std::size_t num_ids = sub.global_id.size();
  std::copy(b.owned.begin(), b.owned.end(), sub.global_id.begin());
  std::copy(b.ghosts.begin(), b.ghosts.end(),
            sub.global_id.begin() + num_local);
  for (graph::VertexId lid = 0; lid < num_ids; ++lid)
    local_of[sub.global_id[lid]] = lid;
  for (graph::VertexId i = 0; i < sub.num_ghosts; ++i)
    sub.ghost_owner[i] = p[b.ghosts[i]];

  // Out-runs: the global run is sorted and local ids keep global order
  // within the owned and the ghost range, so owned targets followed by
  // ghost targets is already the sorted local run.
  b.out_off[0] = 0;
  for (graph::VertexId lid = 0; lid < num_local; ++lid)
    b.out_off[lid + 1] = b.out_off[lid] + g.out_degree(b.owned[lid]);
  for (std::size_t i = num_local; i < num_ids; ++i)
    b.out_off[i + 1] = b.out_off[i];
  graph::EdgeId pos = 0;
  for (const graph::VertexId v : b.owned) {
    const auto nbrs = g.out_neighbors(v);
    for (const graph::VertexId u : nbrs)
      if (local_of[u] < num_local) b.out_tgt[pos++] = local_of[u];
    for (const graph::VertexId u : nbrs)
      if (local_of[u] >= num_local) b.out_tgt[pos++] = local_of[u];
  }

  // In-CSR: a stable counting transpose over ascending sources, so every
  // in-run comes out sorted. in_off doubles as the fill cursor and is
  // shifted back into offsets afterwards.
  for (const graph::VertexId t : b.out_tgt) ++b.in_off[t + 1];
  for (std::size_t i = 0; i < num_ids; ++i) b.in_off[i + 1] += b.in_off[i];
  for (graph::VertexId lid = 0; lid < num_local; ++lid)
    for (graph::EdgeId e = b.out_off[lid]; e < b.out_off[lid + 1]; ++e)
      b.in_tgt[b.in_off[b.out_tgt[e]]++] = lid;
  for (std::size_t i = num_ids; i > 0; --i) b.in_off[i] = b.in_off[i - 1];
  b.in_off[0] = 0;

  for (const graph::VertexId v : sub.global_id) local_of[v] = kUnmapped;
  sub.local =
      graph::Graph::from_csr(std::move(b.out_off), std::move(b.out_tgt),
                             std::move(b.in_off), std::move(b.in_tgt));
}

}  // namespace

std::vector<Subgraph> build_subgraphs(const graph::Graph& g,
                                      const Partition& p, unsigned threads) {
  BPART_CHECK(g.num_vertices() == p.num_vertices());
  BPART_CHECK_MSG(p.fully_assigned(), "subgraphs need a full assignment");
  const PartId k = p.num_parts();
  const graph::VertexId n = g.num_vertices();
  BPART_SPAN("partition/build_subgraphs", "parts", static_cast<double>(k),
             "threads", static_cast<double>(threads));

  // Owned vertices bucketed by part, ascending global id within a part.
  std::vector<graph::VertexId> owned_off(static_cast<std::size_t>(k) + 1, 0);
  for (graph::VertexId v = 0; v < n; ++v) ++owned_off[p[v] + 1];
  for (PartId part = 0; part < k; ++part)
    owned_off[part + 1] += owned_off[part];
  std::vector<graph::VertexId> owned(n);
  {
    std::vector<graph::VertexId> cursor(owned_off.begin(),
                                        owned_off.end() - 1);
    for (graph::VertexId v = 0; v < n; ++v) owned[cursor[p[v]]++] = v;
  }

  std::vector<Subgraph> subs(k);
  std::vector<PartBuild> builds(k);
  for (PartId part = 0; part < k; ++part)
    builds[part].owned = std::span(owned).subspan(
        owned_off[part], owned_off[part + 1] - owned_off[part]);
  auto on_workers = [&](auto&& pass) {
    parallel_for(0, k, threads, [&](std::uint64_t lo, std::uint64_t hi) {
      std::vector<graph::VertexId> local_of(n, kUnmapped);
      for (auto part = static_cast<PartId>(lo); part < hi; ++part)
        pass(part, local_of);
    });
  };

  on_workers([&](PartId part, std::vector<graph::VertexId>& local_of) {
    find_ghosts(g, p, part, builds[part], subs[part], local_of);
  });
  // The output arrays are allocated here, on the calling thread. Memory a
  // short-lived worker allocates comes from that thread's malloc arena,
  // whose freed top malloc_trim does not hand back, so the subgraphs of
  // one job stayed resident (≈100 MB on a 9.4M-edge graph) into the next.
  for (PartId part = 0; part < k; ++part) {
    PartBuild& b = builds[part];
    Subgraph& sub = subs[part];
    sub.num_local = static_cast<graph::VertexId>(b.owned.size());
    sub.num_ghosts = static_cast<graph::VertexId>(b.ghosts.size());
    const std::size_t num_ids = b.owned.size() + b.ghosts.size();
    sub.global_id.resize(num_ids);
    sub.ghost_owner.resize(sub.num_ghosts);
    b.out_off.resize(num_ids + 1);
    b.in_off.assign(num_ids + 1, 0);
    b.out_tgt.resize(b.num_edges);
    b.in_tgt.resize(b.num_edges);
  }
  on_workers([&](PartId part, std::vector<graph::VertexId>& local_of) {
    fill_part(g, p, builds[part], subs[part], local_of);
  });
  return subs;
}

bool verify_subgraphs(const graph::Graph& g, const Partition& p,
                      const std::vector<Subgraph>& subs) {
  if (subs.size() != p.num_parts()) return false;

  std::uint64_t total_edges = 0;
  std::uint64_t total_owned = 0;
  std::uint64_t total_cut = 0;
  for (PartId part = 0; part < subs.size(); ++part) {
    const Subgraph& sub = subs[part];
    if (sub.global_id.size() !=
        static_cast<std::size_t>(sub.num_local) + sub.num_ghosts)
      return false;
    if (sub.ghost_owner.size() != sub.num_ghosts) return false;
    total_owned += sub.num_local;
    total_cut += sub.cut_edges;

    for (graph::VertexId lid = 0; lid < sub.global_id.size(); ++lid) {
      const graph::VertexId global = sub.global_id[lid];
      if (global >= g.num_vertices()) return false;
      const bool ghost = sub.is_ghost(lid);
      if (!ghost && p[global] != part) return false;
      if (ghost && p[global] == part) return false;
      if (ghost && sub.ghost_owner[lid - sub.num_local] != p[global])
        return false;
      // Ghosts hold no out-edges locally.
      if (ghost && sub.local.out_degree(lid) != 0) return false;
      // Owned vertices carry their full global adjacency.
      if (!ghost && sub.local.out_degree(lid) != g.out_degree(global))
        return false;
      total_edges += sub.local.out_degree(lid);
    }
  }
  if (total_owned != g.num_vertices()) return false;
  if (total_edges != g.num_edges()) return false;
  if (total_cut != edge_cut_count(g, p)) return false;
  return true;
}

}  // namespace bpart::partition
