// cluster_playground — a tour of the cluster substrate itself: runs
// PageRank on the simulated BSP cluster under two partitions and prints the
// per-iteration timeline (who computed how long, who waited).
//
// Usage: cluster_playground [--graph=twitter] [--parts=8]
#include <cstdio>

#include "engine/pagerank.hpp"
#include "graph/datasets.hpp"
#include "partition/registry.hpp"
#include "util/options.hpp"

using namespace bpart;

namespace {

void timeline(const std::string& label, const cluster::RunReport& run) {
  std::printf("\n%s: %.3fs simulated, wait ratio %.3f\n", label.c_str(),
              run.total_seconds(), run.wait_ratio());
  const std::size_t show = std::min<std::size_t>(run.iterations.size(), 3);
  for (std::size_t it = 0; it < show; ++it) {
    const auto& iter = run.iterations[it];
    std::printf("  iter %zu:", it);
    for (const auto& m : iter.machines)
      std::printf(" [%.0fms+%.0fms wait]", m.compute_seconds * 1e3,
                  m.wait_seconds * 1e3);
    std::printf("\n");
  }
  if (run.iterations.size() > show)
    std::printf("  ... %zu more iterations\n", run.iterations.size() - show);
}

}  // namespace

int main(int argc, char** argv) {
  const Options opts(argc, argv);
  const graph::Graph g =
      graph::build_dataset(graph::dataset_spec(opts.get("graph", "twitter")));
  const auto k = static_cast<partition::PartId>(opts.get_int("parts", 8));

  for (const char* algo : {"chunk-v", "bpart"}) {
    const auto parts = partition::create(algo)->partition(g, k);
    const auto result = engine::pagerank(g, parts);
    timeline(std::string("PageRank under ") + algo, result.run);
  }
  return 0;
}
