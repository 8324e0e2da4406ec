// Differential test of the per-machine subgraph builder behind DistGraph:
// the linear, per-worker build must reproduce, byte for byte, the
// straightforward construction (renumber every owned edge into an EdgeList,
// then Graph::from_edges) at any thread count — including on self-loops,
// parallel edges, isolated vertices, one-way edges, empty parts and k > n.
#include "dist/dist_graph.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <unordered_map>
#include <vector>

#include "graph/generators.hpp"
#include "partition/registry.hpp"
#include "partition/subgraph.hpp"
#include "util/rng.hpp"

namespace bpart::dist {
namespace {

using graph::VertexId;
using partition::PartId;
using partition::Subgraph;

// The reference construction: hash-map renumbering, an intermediate
// EdgeList and a sorting CSR build, one part at a time.
std::vector<Subgraph> oracle_subgraphs(const graph::Graph& g,
                                       const partition::Partition& p) {
  const PartId k = p.num_parts();
  const VertexId n = g.num_vertices();
  std::vector<std::vector<VertexId>> owned(k);
  for (VertexId v = 0; v < n; ++v) owned[p[v]].push_back(v);
  std::vector<std::vector<VertexId>> ghosts(k);
  for (VertexId v = 0; v < n; ++v)
    for (VertexId u : g.out_neighbors(v))
      if (p[u] != p[v]) ghosts[p[v]].push_back(u);
  for (auto& list : ghosts) {
    std::sort(list.begin(), list.end());
    list.erase(std::unique(list.begin(), list.end()), list.end());
  }

  std::vector<Subgraph> subs(k);
  for (PartId part = 0; part < k; ++part) {
    Subgraph& sub = subs[part];
    sub.num_local = static_cast<VertexId>(owned[part].size());
    sub.num_ghosts = static_cast<VertexId>(ghosts[part].size());
    sub.global_id = owned[part];
    sub.global_id.insert(sub.global_id.end(), ghosts[part].begin(),
                         ghosts[part].end());
    for (VertexId ghost : ghosts[part]) sub.ghost_owner.push_back(p[ghost]);
    std::unordered_map<VertexId, VertexId> local_of;
    for (VertexId lid = 0; lid < sub.global_id.size(); ++lid)
      local_of.emplace(sub.global_id[lid], lid);
    graph::EdgeList edges(static_cast<VertexId>(sub.global_id.size()));
    for (VertexId lid = 0; lid < sub.num_local; ++lid)
      for (VertexId u : g.out_neighbors(sub.global_id[lid])) {
        edges.add(lid, local_of.at(u));
        if (p[u] != part) ++sub.cut_edges;
      }
    edges.set_num_vertices(static_cast<VertexId>(sub.global_id.size()));
    sub.local = graph::Graph::from_edges(edges);
  }
  return subs;
}

template <typename T>
std::vector<T> to_vec(std::span<const T> s) {
  return {s.begin(), s.end()};
}

void expect_same_subgraphs(const std::vector<Subgraph>& got,
                           const std::vector<Subgraph>& want,
                           const std::string& where) {
  ASSERT_EQ(got.size(), want.size()) << where;
  for (std::size_t m = 0; m < want.size(); ++m) {
    const Subgraph& a = got[m];
    const Subgraph& b = want[m];
    SCOPED_TRACE(where + " machine " + std::to_string(m));
    EXPECT_EQ(a.num_local, b.num_local);
    EXPECT_EQ(a.num_ghosts, b.num_ghosts);
    EXPECT_EQ(a.global_id, b.global_id);
    EXPECT_EQ(a.ghost_owner, b.ghost_owner);
    EXPECT_EQ(a.cut_edges, b.cut_edges);
    EXPECT_EQ(to_vec(a.local.out_offsets()), to_vec(b.local.out_offsets()));
    EXPECT_EQ(to_vec(a.local.out_targets()), to_vec(b.local.out_targets()));
    EXPECT_EQ(to_vec(a.local.in_offsets()), to_vec(b.local.in_offsets()));
    EXPECT_EQ(to_vec(a.local.in_targets()), to_vec(b.local.in_targets()));
  }
}

// owner_local and mirror_holders derived from the oracle's ghost tables:
// holders of an owned vertex are the machines listing it as a ghost, in
// ascending machine order.
void expect_same_indexes(const DistGraph& dg, const graph::Graph& g,
                         const partition::Partition& p,
                         const std::vector<Subgraph>& want,
                         const std::string& where) {
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    const Subgraph& home = want[p[v]];
    const auto it = std::lower_bound(
        home.global_id.begin(), home.global_id.begin() + home.num_local, v);
    const auto lid = static_cast<VertexId>(it - home.global_id.begin());
    ASSERT_EQ(dg.owner(v), p[v]) << where << " vertex " << v;
    ASSERT_EQ(dg.owner_local(v), lid) << where << " vertex " << v;

    std::vector<MachineId> holders;
    for (MachineId h = 0; h < want.size(); ++h) {
      const auto begin = want[h].global_id.begin() + want[h].num_local;
      if (std::binary_search(begin, want[h].global_id.end(), v))
        holders.push_back(h);
    }
    const auto got = dg.mirror_holders(p[v], lid);
    EXPECT_EQ(std::vector<MachineId>(got.begin(), got.end()), holders)
        << where << " vertex " << v;
  }
}

void check_all_thread_counts(const graph::Graph& g,
                             const partition::Partition& p,
                             const std::string& where) {
  const std::vector<Subgraph> want = oracle_subgraphs(g, p);
  for (const unsigned threads : {1u, 2u, 8u}) {
    const std::string at = where + " threads=" + std::to_string(threads);
    const std::vector<Subgraph> got =
        partition::build_subgraphs(g, p, threads);
    expect_same_subgraphs(got, want, at);
    EXPECT_TRUE(partition::verify_subgraphs(g, p, got)) << at;

    const DistGraph dg(g, p, threads);
    ASSERT_EQ(dg.num_machines(), p.num_parts()) << at;
    for (MachineId m = 0; m < dg.num_machines(); ++m)
      EXPECT_EQ(dg.subgraph(m).global_id, want[m].global_id) << at;
    expect_same_indexes(dg, g, p, want, at);
  }
}

// Random directed multigraph over n vertices: self-loops, parallel edges
// and one-way edges arise from uniform draws and are also planted; the top
// quarter of the ids is never drawn, so those vertices stay isolated.
graph::Graph random_multigraph(Xoshiro256& rng, VertexId n) {
  graph::EdgeList edges(n);
  const VertexId drawn = std::max<VertexId>(1, n - n / 4);
  const std::uint64_t m = rng.bounded(4 * std::uint64_t{n} + 1);
  for (std::uint64_t i = 0; i < m; ++i) {
    const auto src = static_cast<VertexId>(rng.bounded(drawn));
    const auto dst = static_cast<VertexId>(rng.bounded(drawn));
    edges.add(src, dst);
    if (rng.bounded(8) == 0) edges.add(src, dst);  // parallel edge
    if (rng.bounded(16) == 0) edges.add(src, src);  // self-loop
  }
  edges.set_num_vertices(n);
  return graph::Graph::from_edges(edges);
}

// Random assignment that leaves some parts empty: only `used` of the k
// part ids ever receive a vertex.
partition::Partition random_partition(Xoshiro256& rng, VertexId n, PartId k) {
  const auto used = static_cast<PartId>(1 + rng.bounded(k));
  std::vector<PartId> pool(k);
  for (PartId i = 0; i < k; ++i) pool[i] = i;
  for (PartId i = k; i > 1; --i)
    std::swap(pool[i - 1], pool[rng.bounded(i)]);
  partition::Partition p(n, k);
  for (VertexId v = 0; v < n; ++v)
    p.assign(v, pool[rng.bounded(used)]);
  return p;
}

TEST(DistGraphBuild, MatchesReferenceOnRandomMultigraphs) {
  Xoshiro256 rng(2024);
  for (int trial = 0; trial < 40; ++trial) {
    const auto n = static_cast<VertexId>(1 + rng.bounded(120));
    // k ranges over 1, small, and past n (k > n forces empty parts).
    const PartId choices[] = {1, 2, 3, 8, static_cast<PartId>(n + 5)};
    const PartId k = choices[rng.bounded(5)];
    const graph::Graph g = random_multigraph(rng, n);
    const partition::Partition p = random_partition(rng, n, k);
    check_all_thread_counts(g, p,
                            "trial " + std::to_string(trial) + " n=" +
                                std::to_string(n) + " k=" +
                                std::to_string(k));
  }
}

TEST(DistGraphBuild, MatchesReferenceOnPartitionerOutputs) {
  graph::ErdosRenyiConfig er;
  er.num_vertices = 1 << 10;
  er.num_edges = 1 << 13;
  er.seed = 5;
  const graph::Graph directed = graph::Graph::from_edges(graph::erdos_renyi(er));
  graph::RmatConfig rm;
  rm.scale = 10;
  rm.edge_factor = 8;
  rm.seed = 4;
  const graph::Graph powerlaw =
      graph::Graph::from_edges_symmetric(graph::rmat(rm));
  for (const std::string algo : {"hash", "bpart"}) {
    check_all_thread_counts(directed,
                            partition::create(algo)->partition(directed, 8),
                            "erdos-renyi " + algo);
    check_all_thread_counts(powerlaw,
                            partition::create(algo)->partition(powerlaw, 8),
                            "rmat " + algo);
  }
}

TEST(DistGraphBuild, EmptyGraphAndSinglePart) {
  const graph::Graph empty = graph::Graph::from_edges(graph::EdgeList(0));
  check_all_thread_counts(empty, partition::Partition(0, 3), "empty");

  const graph::Graph lonely = graph::Graph::from_edges(graph::EdgeList(5));
  partition::Partition one(5, 1);
  for (VertexId v = 0; v < 5; ++v) one.assign(v, 0);
  check_all_thread_counts(lonely, one, "isolated, one part");
}

}  // namespace
}  // namespace bpart::dist
