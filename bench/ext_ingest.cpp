// Extension — sharded text parse + artifact store, end to end.
//
// Generates a >= 1M-edge graph, writes it as a text edge list, then times:
//   1. graph::load_text_edges at 1 thread and at --threads (>= 4); the
//      1-thread row is the base of the speedup column,
//   2. a cold PipelineRunner run (parse + CSR + BPart partition, cache
//      populated), and
//   3. a warm run, which must skip parse and partition entirely and serve
//      both artifacts from the store (reported as cache-hit timing).
//
// Self-checks (exit 1): every thread count parses the same edge list, and
// the warm run hits both caches.
#include "common.hpp"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <unistd.h>

#include "graph/generators.hpp"
#include "graph/io.hpp"
#include "pipeline/runner.hpp"
#include "util/env.hpp"
#include "util/timer.hpp"

using namespace bpart;

int main(int argc, char** argv) {
  const Options opts(argc, argv);
  const auto threads = static_cast<unsigned>(opts.get_int(
      "threads", std::max(4u, thread_count())));
  const auto k = static_cast<partition::PartId>(opts.get_int("parts", 8));
  const auto edges_target = static_cast<graph::EdgeId>(
      static_cast<double>(opts.get_int("edges", 1 << 20)) * dataset_scale());
  bench::report().set_name("ingest");
  bench::report().add_info("threads", static_cast<double>(threads));

  const auto tmp = std::filesystem::temp_directory_path() /
                   ("bpart_ext_ingest_" + std::to_string(::getpid()));
  std::filesystem::create_directories(tmp);
  const std::string text_path = (tmp / "graph.txt").string();

  // 1M+ directed edges over 64K vertices: big enough that parsing, not
  // generation, dominates the text path.
  graph::ErdosRenyiConfig gen;
  gen.num_vertices = 1 << 16;
  gen.num_edges = edges_target;
  gen.seed = 7;
  {
    Timer t;
    graph::save_text_edges(graph::erdos_renyi(gen), text_path);
    std::fprintf(stderr, "[ext_ingest] wrote %s (%.1f MiB) in %.1fs\n",
                 text_path.c_str(),
                 static_cast<double>(std::filesystem::file_size(text_path)) /
                     (1 << 20),
                 t.seconds());
  }

  Table table({"stage", "seconds", "speedup_vs_t1", "edges", "note"});
  double base_s = 0;
  const auto row = [&](const std::string& stage, double seconds,
                       std::uint64_t edges, const std::string& note) {
    table.row()
        .cell(stage)
        .cell(seconds)
        .cell(seconds > 0 ? base_s / seconds : 0.0)
        .cell(static_cast<double>(edges))
        .cell(note);
  };

  // 1. The text parser at 1 thread and N threads.
  graph::EdgeList base_edges;
  for (const unsigned n : {1u, threads}) {
    graph::TextLoadReport rep;
    graph::EdgeList parsed = graph::load_text_edges(text_path, n, &rep);
    if (n == 1) {
      base_s = rep.seconds;
      base_edges = std::move(parsed);
    } else if (parsed.size() != base_edges.size() ||
               !std::ranges::equal(parsed.edges(), base_edges.edges())) {
      std::fprintf(stderr, "[ext_ingest] %u-thread parse differs: %zu vs %zu "
                   "edges\n", n, parsed.size(), base_edges.size());
      return 1;
    }
    row("load_text_edges_t" + std::to_string(n), rep.seconds, rep.edges,
        std::to_string(rep.shards) + " shards");
  }

  // 2/3. Cold vs warm runner (parse + CSR + partition vs pure cache hits).
  pipeline::PipelineConfig pcfg;
  pcfg.ingest.threads = threads;
  pcfg.cache_dir = (tmp / "cache").string();
  {
    pipeline::PipelineRunner cold(pcfg);
    Timer t;
    (void)cold.run_file(text_path, "bpart", k);
    const auto& r = cold.report();
    bench::report().add_pipeline("cold", r);
    row("cold_run_total", t.seconds(), r.edges,
        "ingest+csr+partition(bpart,k=" + std::to_string(k) + ")");
    row("cold_run_partition", r.partition_seconds, r.edges, "");
  }
  {
    pipeline::PipelineRunner warm(pcfg);
    Timer t;
    (void)warm.run_file(text_path, "bpart", k);
    const auto& r = warm.report();
    bench::report().add_pipeline("warm", r);
    row("warm_run_cache_hit", t.seconds(), r.edges,
        std::string("graph_hit=") + (r.graph_cache_hit ? "1" : "0") +
            " partition_hit=" + (r.partition_cache_hit ? "1" : "0"));
    if (!r.graph_cache_hit || !r.partition_cache_hit) {
      std::fprintf(stderr, "[ext_ingest] warm run missed the cache\n");
      return 1;
    }
  }

  table.set_precision(4);
  bench::emit("Ext: sharded text parse + artifact store (" +
                  std::to_string(threads) + " threads)",
              table, "ext_ingest");
  std::filesystem::remove_all(tmp);
  return 0;
}
