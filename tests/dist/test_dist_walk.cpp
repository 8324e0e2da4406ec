#include "walk/dist_walk.hpp"

#include <gtest/gtest.h>

#include <cstdlib>
#include <optional>
#include <string>
#include <vector>

#include "graph/csr.hpp"
#include "graph/generators.hpp"
#include "partition/registry.hpp"
#include "util/rng.hpp"
#include "walk/apps.hpp"
#include "walk/walk_engine.hpp"

namespace bpart::walk {
namespace {

// Directed cycle: every vertex has out-degree 1, so walks never dead-end
// and step totals are exact.
graph::Graph cycle_graph(graph::VertexId n) {
  graph::EdgeList edges(n);
  edges.reserve(n);
  for (graph::VertexId v = 0; v < n; ++v) edges.add(v, (v + 1) % n);
  return graph::Graph::from_edges(edges);
}

// Watts-Strogatz ring lattice: high locality, no dead ends.
graph::Graph lattice() {
  graph::WattsStrogatzConfig cfg;
  cfg.num_vertices = 1024;
  cfg.k = 4;
  cfg.beta = 0.2;
  cfg.seed = 3;
  return graph::Graph::from_edges(graph::watts_strogatz(cfg));
}

// Directed R-MAT: its sinks end walks early, so step totals depend on
// the trajectories actually walked.
graph::Graph rmat_with_sinks() {
  graph::RmatConfig cfg;
  cfg.scale = 10;
  cfg.edge_factor = 4;
  cfg.seed = 9;
  return graph::Graph::from_edges(graph::rmat(cfg));
}

TEST(DistWalk, StepConservationOnCycle) {
  constexpr graph::VertexId kN = 1000;
  const graph::Graph g = cycle_graph(kN);
  const partition::Partition parts =
      partition::create("chunk-v")->partition(g, 4);

  ThreadedWalkConfig cfg;
  cfg.length = 12;
  cfg.walks_per_vertex = 3;
  const DistWalkReport r = run_simple_walks_dist(g, parts, cfg);

  // No dead ends: every walker takes exactly `length` steps.
  EXPECT_EQ(r.total_steps,
            static_cast<std::uint64_t>(kN) * cfg.walks_per_vertex * cfg.length);
  // Contiguous 250-vertex blocks, 12-step walks: every walker starting near
  // a block boundary ships at least once.
  EXPECT_GT(r.message_walks, 0u);
  EXPECT_GT(r.supersteps, 1u);

  // The measured report counts exactly the shipped walkers as messages.
  std::uint64_t msgs = 0;
  for (const auto& it : r.run.iterations)
    for (const auto& m : it.machines) msgs += m.messages_sent;
  EXPECT_EQ(msgs, r.message_walks);
  EXPECT_EQ(r.run.num_machines, 4u);
  EXPECT_EQ(r.run.iterations.size(), r.supersteps);
}

TEST(DistWalk, SinglePartitionNeverShips) {
  const graph::Graph g = cycle_graph(128);
  const partition::Partition parts =
      partition::create("chunk-v")->partition(g, 1);
  ThreadedWalkConfig cfg;
  cfg.length = 5;
  const DistWalkReport r = run_simple_walks_dist(g, parts, cfg);
  EXPECT_EQ(r.total_steps, 128u * 5u);
  EXPECT_EQ(r.message_walks, 0u);
  EXPECT_EQ(r.supersteps, 1u);  // all walks complete in the first superstep
}

TEST(DistWalk, MatchesRunWalksExactly) {
  // Both engines draw from the counter streams keyed (seed, walker, step)
  // and index neighbors in global-id order, so trajectories — not just
  // totals — are identical: step AND message-walk counts agree exactly.
  // The graph's sinks exercise dead ends as well.
  const graph::Graph g = rmat_with_sinks();
  const partition::Partition parts =
      partition::create("hash")->partition(g, 4);
  ThreadedWalkConfig cfg;
  cfg.length = 8;
  cfg.walks_per_vertex = 2;
  cfg.seed = 17;
  const DistWalkReport dist = run_simple_walks_dist(g, parts, cfg);

  WalkConfig scfg;
  scfg.walks_per_vertex = cfg.walks_per_vertex;
  scfg.seed = cfg.seed;
  scfg.exec.threads = 2;
  const WalkReport sim =
      run_walks(g, parts, SimpleRandomWalk(cfg.length), scfg);
  EXPECT_EQ(dist.total_steps, sim.total_steps);
  EXPECT_EQ(dist.message_walks, sim.message_walks);
  EXPECT_LT(dist.total_steps, static_cast<std::uint64_t>(g.num_vertices()) *
                                  cfg.walks_per_vertex * cfg.length);
}

TEST(DistWalk, SameWalksAtEveryWorkerCount) {
  // Each machine drains its queue in arrival order and the channel
  // delivers in a fixed order, so how many runtime workers share the eight
  // machines changes nothing: totals, superstep count and every
  // per-superstep, per-machine send count are identical.
  graph::WattsStrogatzConfig wcfg;
  wcfg.num_vertices = 512;
  wcfg.k = 4;
  wcfg.beta = 0.2;
  wcfg.seed = 5;
  const graph::Graph g = graph::Graph::from_edges(graph::watts_strogatz(wcfg));
  const partition::Partition parts =
      partition::create("chunk-v")->partition(g, 8);
  ThreadedWalkConfig cfg;
  cfg.length = 10;
  cfg.walks_per_vertex = 2;

  const char* prev = std::getenv("BPART_THREADS");
  const std::optional<std::string> saved =
      prev != nullptr ? std::optional<std::string>(prev) : std::nullopt;
  std::vector<DistWalkReport> runs;
  for (const char* threads : {"1", "2", "8"}) {
    ASSERT_EQ(setenv("BPART_THREADS", threads, 1), 0);
    runs.push_back(run_simple_walks_dist(g, parts, cfg));
  }
  if (saved.has_value())
    ASSERT_EQ(setenv("BPART_THREADS", saved->c_str(), 1), 0);
  else
    ASSERT_EQ(unsetenv("BPART_THREADS"), 0);

  const DistWalkReport& base = runs.front();
  EXPECT_GT(base.message_walks, 0u);
  for (std::size_t i = 1; i < runs.size(); ++i) {
    const DistWalkReport& got = runs[i];
    EXPECT_EQ(got.total_steps, base.total_steps) << "run " << i;
    EXPECT_EQ(got.message_walks, base.message_walks) << "run " << i;
    ASSERT_EQ(got.supersteps, base.supersteps) << "run " << i;
    for (std::size_t s = 0; s < base.supersteps; ++s)
      for (std::size_t m = 0; m < 8; ++m)
        EXPECT_EQ(got.run.iterations[s].machines[m].messages_sent,
                  base.run.iterations[s].machines[m].messages_sent)
            << "run " << i << " superstep " << s << " machine " << m;
  }
}

TEST(DistWalk, DifferentialAgainstRunWalksOnHostileInputs) {
  // Seeded random multigraphs with self-loops, parallel edges, isolated
  // vertices and sinks, under random partitions that include k > n and
  // empty parts. The dist engine and the keyed run_walks must agree on
  // step and message-walk totals, superstep count and every
  // per-superstep, per-machine send count.
  std::uint64_t shipped_past_n = 0;  // walkers shipped on k > n inputs
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    Xoshiro256 rng(seed);
    const auto n = static_cast<graph::VertexId>(1 + rng.bounded(48));
    // Only the first `active` ids get edges: the rest stay isolated.
    const auto active = static_cast<graph::VertexId>(1 + rng.bounded(n));
    graph::EdgeList edges(n);
    const std::uint64_t m = rng.bounded(3 * std::uint64_t{active} + 1);
    for (std::uint64_t e = 0; e < m; ++e) {
      const auto u = static_cast<graph::VertexId>(rng.bounded(active));
      const auto v = static_cast<graph::VertexId>(rng.bounded(active));
      edges.add(u, v);
      if (rng.bounded(4) == 0) edges.add(u, v);  // parallel edge
      if (rng.bounded(6) == 0) edges.add(u, u);  // self-loop
    }
    const graph::Graph g = graph::Graph::from_edges(edges);
    ASSERT_EQ(g.num_vertices(), n);
    // Every third seed has more parts than vertices; the rest draw
    // k <= n, still leaving some parts empty by chance.
    const auto k = static_cast<partition::PartId>(
        seed % 3 == 0 ? n + 1 + rng.bounded(4) : 1 + rng.bounded(n));
    partition::Partition parts(n, k);
    for (graph::VertexId v = 0; v < n; ++v)
      parts.assign(v, static_cast<partition::PartId>(rng.bounded(k)));

    ThreadedWalkConfig cfg;
    cfg.length = 1 + static_cast<unsigned>(rng.bounded(8));
    cfg.walks_per_vertex = 1 + static_cast<unsigned>(rng.bounded(3));
    cfg.seed = seed * 7919;
    const DistWalkReport dist = run_simple_walks_dist(g, parts, cfg);

    WalkConfig scfg;
    scfg.walks_per_vertex = cfg.walks_per_vertex;
    scfg.seed = cfg.seed;
    scfg.exec.threads = 2;
    const WalkReport sim =
        run_walks(g, parts, SimpleRandomWalk(cfg.length), scfg);

    EXPECT_EQ(dist.total_steps, sim.total_steps) << "seed " << seed;
    EXPECT_EQ(dist.message_walks, sim.message_walks) << "seed " << seed;
    if (k > n) shipped_past_n += dist.message_walks;
    ASSERT_EQ(dist.supersteps, sim.run.iterations.size()) << "seed " << seed;
    ASSERT_EQ(dist.run.num_machines, k) << "seed " << seed;
    for (std::size_t s = 0; s < dist.supersteps; ++s)
      for (partition::PartId p = 0; p < k; ++p)
        EXPECT_EQ(dist.run.iterations[s].machines[p].messages_sent,
                  sim.run.iterations[s].machines[p].messages_sent)
            << "seed " << seed << " superstep " << s << " machine " << p;
  }
  EXPECT_GT(shipped_past_n, 0u);
}

TEST(DistWalk, DeadEndsTerminateEarly) {
  graph::EdgeList el;
  el.add(0, 1);
  el.add(1, 2);  // 2 is a sink
  const graph::Graph g = graph::Graph::from_edges(el);
  partition::Partition parts(3, 2);
  parts.assign(0, 0);
  parts.assign(1, 1);
  parts.assign(2, 0);
  ThreadedWalkConfig cfg;
  cfg.length = 10;
  const DistWalkReport r = run_simple_walks_dist(g, parts, cfg);
  // Walker@0: 2 steps; walker@1: 1 step; walker@2: 0.
  EXPECT_EQ(r.total_steps, 3u);
  // Walker@0 crosses 0->1 and 1->2; walker@1 crosses 1->2.
  EXPECT_EQ(r.message_walks, 3u);
}

TEST(DistWalk, LocalPartitionNeedsFewerSuperstepsThanHash) {
  const graph::Graph g = lattice();
  ThreadedWalkConfig cfg;
  cfg.length = 8;
  const DistWalkReport chunk = run_simple_walks_dist(
      g, partition::create("chunk-v")->partition(g, 4), cfg);
  const DistWalkReport hash = run_simple_walks_dist(
      g, partition::create("hash")->partition(g, 4), cfg);
  EXPECT_EQ(chunk.total_steps, hash.total_steps);
  EXPECT_LT(chunk.message_walks, hash.message_walks);
  EXPECT_LT(chunk.supersteps, hash.supersteps);
}

TEST(DistWalk, StepsIndependentOfMachineCount) {
  // Counter streams make a walker's trajectory a pure function of
  // (seed, walker, step), not of the machine hosting it: step totals stay
  // fixed as the partition count changes; only the crossing counts move.
  const graph::Graph g = rmat_with_sinks();
  ThreadedWalkConfig cfg;
  cfg.length = 8;
  cfg.seed = 13;
  const DistWalkReport base = run_simple_walks_dist(
      g, partition::create("chunk-v")->partition(g, 1), cfg);
  EXPECT_LT(base.total_steps,
            static_cast<std::uint64_t>(g.num_vertices()) * cfg.length);
  for (const partition::PartId k : {2u, 5u}) {
    const DistWalkReport r = run_simple_walks_dist(
        g, partition::create("chunk-v")->partition(g, k), cfg);
    EXPECT_EQ(r.total_steps, base.total_steps) << k << " machines";
  }
}

}  // namespace
}  // namespace bpart::walk
