// Distributed PageRank (push-style, fixed iteration count) — one of the two
// Gemini applications in the paper's evaluation (§4.1 runs PR for ten
// iterations). This engine counts work and messages on the simulated
// cluster; dist::pagerank (dist/pagerank.hpp) runs the same computation on
// real threads with measured time.
#pragma once

#include <vector>

#include "engine/context.hpp"
#include "exec/exec_config.hpp"

namespace bpart::engine {

struct PageRankConfig {
  double damping = 0.85;
  unsigned iterations = 10;
  /// Intra-machine parallel execution (src/exec/). Threads unset (and no
  /// $BPART_EXEC_THREADS) keeps the sequential push loop bit-identical to
  /// the pre-exec engine; threads >= 1 runs the chunk-scheduled pull path,
  /// whose ranks are bit-identical across thread counts.
  exec::ExecConfig exec;
};

struct PageRankResult {
  std::vector<double> rank;      ///< Per-vertex rank, sums to ~1.
  cluster::RunReport run;
};

/// Each iteration, every machine streams its owned vertices' out-edges,
/// pushing rank/out_degree to each neighbor; contributions crossing a
/// partition boundary are counted as messages. Dangling vertices distribute
/// their rank uniformly (handled as a global correction term, no traffic).
PageRankResult pagerank(const graph::Graph& g,
                        const partition::Partition& parts,
                        const PageRankConfig& cfg = {},
                        cluster::CostModel model = {});

}  // namespace bpart::engine
