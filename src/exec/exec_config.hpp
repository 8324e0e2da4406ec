// Knobs of the intra-machine parallel execution core.
//
// Every engine-level app and the dist PageRank, CC, SSSP and mirror apps
// carry an ExecConfig (the dist walk has no exec routing: it drains each
// machine's queue sequentially). The zero value
// means "consult the environment": $BPART_EXEC_THREADS picks the worker
// count (unset keeps the app's legacy sequential code path, bit-identical
// to before the exec core existed), $BPART_EXEC_CHUNK the edges-per-chunk
// target of the scheduler. Tests and benches set the fields explicitly.
#pragma once

#include <cstdint>

namespace bpart::exec {

struct ExecConfig {
  /// Exec-core workers. 0 = $BPART_EXEC_THREADS; if that is unset too, the
  /// app keeps its sequential legacy path (resolved_threads() == 0).
  unsigned threads = 0;
  /// Edges per scheduler chunk. 0 = $BPART_EXEC_CHUNK (default 4096).
  std::uint32_t chunk_edges = 0;

  /// 0 = run the legacy sequential path; >= 1 = run the exec path with
  /// that many workers (1 executes inline, still through the scheduler).
  [[nodiscard]] unsigned resolved_threads() const;
  [[nodiscard]] std::uint32_t resolved_chunk_edges() const;
};

}  // namespace bpart::exec
