#include "walk/dist_walk.hpp"

#include <utility>
#include <vector>

#include "dist/runtime.hpp"
#include "util/check.hpp"
#include "walk/apps.hpp"

namespace bpart::walk {

namespace {

struct Walker {
  std::uint64_t id;
  std::uint32_t steps;
  graph::VertexId at;  // global vertex id, queued and in transit alike
};

struct WalkMachine {
  std::vector<Walker> queue;  // walkers currently on this machine
  std::uint64_t total_steps = 0;
  std::uint64_t message_walks = 0;
};

}  // namespace

DistWalkReport run_simple_walks_dist(const graph::Graph& g,
                                     const partition::Partition& parts,
                                     const ThreadedWalkConfig& cfg) {
  BPART_CHECK(g.num_vertices() == parts.num_vertices());
  BPART_CHECK(parts.fully_assigned());
  const graph::VertexId n = g.num_vertices();
  const cluster::MachineId machines = parts.num_parts();
  const SimpleRandomWalk app(cfg.length);

  std::vector<WalkMachine> state(machines);
  for (unsigned r = 0; r < cfg.walks_per_vertex; ++r)
    for (graph::VertexId v = 0; v < n; ++v)
      state[parts[v]].queue.push_back(
          Walker{static_cast<std::uint64_t>(r) * n + v, 0, v});

  dist::RuntimeConfig rcfg;
  rcfg.max_supersteps = cfg.max_supersteps;
  dist::RunResult run = dist::Runtime<Walker>::run(
      machines, rcfg, [&](dist::Runtime<Walker>::Context& ctx, std::size_t) {
        WalkMachine& me = state[ctx.self()];
        ctx.for_each_message([&](const Walker& w) { me.queue.push_back(w); });

        // Greedy advance on the global CSR: each step draws through
        // SimpleRandomWalk::step on the stream keyed (seed, walker id,
        // step), the draws run_walks makes, so trajectories match it by
        // construction. A walker stops at its end, a dead end, or the
        // first vertex owned by another machine, which it ships to.
        std::uint64_t steps = 0;
        for (const Walker& w : me.queue) {
          WalkerState walker;
          walker.current = w.at;
          walker.steps_taken = w.steps;
          for (;;) {
            StepRng rng(cfg.seed, w.id, walker.steps_taken);
            const StepDecision d = app.step(walker, g, rng);
            if (d.terminate) break;
            ++walker.steps_taken;
            ++steps;
            const cluster::MachineId there = parts[d.next];
            if (there != ctx.self()) {
              ctx.send(there, Walker{w.id, walker.steps_taken, d.next});
              ++me.message_walks;
              break;
            }
            walker.current = d.next;
          }
        }
        me.queue.clear();
        me.total_steps += steps;
        ctx.add_work(steps);
        return dist::Vote::kHalt;  // in-flight walkers keep the run alive
      });

  DistWalkReport report;
  for (const WalkMachine& m : state) {
    report.total_steps += m.total_steps;
    report.message_walks += m.message_walks;
  }
  report.supersteps = run.supersteps;
  report.run = std::move(run.report);
  return report;
}

}  // namespace bpart::walk
