// End-to-end BPart benchmark: a generated text edge list goes in, checked
// PageRank / CC / SSSP / walk / dynamic-partition results come out. Each
// workload drives the library only through its public entry points and
// times every call from outside (see ledger.hpp). README.md in this
// directory lists the workloads, the metrics and which layer moves which.
//
//   e2e_bench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--vertices-log2 <k>] [--work-dir <dir>] [--trace-out <file>]
//             [--inject-fault cc-label]
//   e2e_bench --generate --seed <n> [--vertices-log2 <k>] [--work-dir <dir>]
//
// --generate writes the seed's input and exits. run.py calls it in a
// process of its own first, so every measuring process starts from the
// same heap history whether or not the input was already on disk.
//
// The last stdout line is one JSON object {correct, attempted, failed,
// metrics}: the end-to-end metrics untraced, the per-layer metrics traced.
// A failed output check makes the exit code non-zero.
#include <malloc.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iostream>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "dist/components.hpp"
#include "dist/mirror.hpp"
#include "dist/pagerank.hpp"
#include "dist/sssp.hpp"
#include "dyn/service.hpp"
#include "engine/pagerank.hpp"
#include "engine/sssp.hpp"
#include "graph/generators.hpp"
#include "ledger.hpp"
#include "partition/metrics.hpp"
#include "partition/registry.hpp"
#include "pipeline/runner.hpp"
#include "vcut/edge_partition.hpp"
#include "vcut/mirror_graph.hpp"
#include "vcut/registry.hpp"
#include "vcut/split_merge.hpp"
#include "walk/dist_walk.hpp"

extern char** environ;

namespace {

namespace fs = std::filesystem;
using namespace bpart;
using perfbench::MetricSet;
using perfbench::Tracer;
using graph::VertexId;
using Scope = Tracer::Scope;

// --- Fixed workload shape ----------------------------------------------------

constexpr partition::PartId kMachines = 8;   // the paper's cluster size
constexpr double kAvgDegree = 36.0;          // Twitter stand-in's degree
constexpr unsigned kPrIterations = 10;
constexpr unsigned kWalkLength = 10;
constexpr std::size_t kDynBatchEdges = 4096;  // directed edges per apply()
constexpr unsigned kMaintainEvery = 8;        // batches per maintain()
constexpr double kDynBaseShare = 0.85;
constexpr std::uint64_t kDynBudget = 256;
constexpr unsigned kDynReaders = 2;
constexpr std::size_t kInputsKept = 12;       // generated inputs on disk
constexpr int kMinReps = 3;  // so the median drops a cold first repetition
constexpr double kMiB = 1024.0 * 1024.0;

const char* const kWorkloads[] = {"etl-cold", "analytics-warm", "vertex-cut",
                                  "dynamic-serve"};

// End-to-end metrics of the result line (untraced runs), every workload.
const std::vector<std::pair<std::string, std::string>> kEndToEnd = {
    {"setup_s", "s"}, {"job_s", "s"}, {"peak_rss_mb", "MiB"}};

// Per-layer metrics of the result line (traced runs), every workload; a
// layer that does not run in a workload reports 0.
std::vector<std::pair<std::string, std::string>> per_layer_names() {
  std::vector<std::pair<std::string, std::string>> v = {
      {"pipeline.ingest_s", "s"},       {"pipeline.ingest_mb_per_s", "MiB/s"},
      {"pipeline.csr_build_s", "s"},    {"pipeline.reorder_s", "s"},
      {"pipeline.cache_s", "s"},        {"pipeline.cache_mb", "MiB"},
      {"pipeline.other_s", "s"},        {"pipeline.hwm_mb", "MiB"},
      {"partition.s", "s"},             {"partition.vertices_per_s", "1/s"},
      {"partition.edge_cut_ratio", "ratio"},
      {"partition.vertex_bias", "ratio"},
      {"partition.edge_bias", "ratio"}, {"partition.hwm_mb", "MiB"}};
  for (const char* app :
       {"pagerank", "cc", "sssp", "walk", "mirror_pagerank", "mirror_cc"}) {
    const std::string p = std::string("dist.") + app + ".";
    v.insert(v.end(), {{p + "s", "s"},
                       {p + "setup_s", "s"},
                       {p + "supersteps", "count"},
                       {p + "crit_compute_s", "s"},
                       {p + "wait_s", "s"},
                       {p + "compute_skew", "ratio"},
                       {p + "mb_sent", "MiB"},
                       {p + "messages", "count"}});
  }
  v.insert(v.end(),
           {{"dist.hwm_mb", "MiB"},
            {"walk.steps", "count"},
            {"walk.message_walks", "count"},
            {"walk.steps_per_s", "1/s"},
            {"walk.hwm_mb", "MiB"},
            {"vcut.place_s", "s"},
            {"vcut.split_merge_s", "s"},
            {"vcut.moved_pairs", "count"},
            {"vcut.mirror_build_s", "s"},
            {"vcut.replication_factor", "copies/vertex"},
            {"vcut.edge_bias", "ratio"},
            {"vcut.hwm_mb", "MiB"},
            {"dyn.apply_s", "s"},
            {"dyn.maintain_s", "s"},
            {"dyn.maintain_p50_ms", "ms"},
            {"dyn.compactions", "count"},
            {"dyn.migrations", "count"},
            {"dyn.new_vertices", "count"},
            {"dyn.epochs_published", "count"},
            {"dyn.update_edges_per_s", "edges/s"},
            {"dyn.update_p50_ms", "ms"},
            {"dyn.update_p95_ms", "ms"},
            {"dyn.lookups_per_s", "lookups/s"},
            {"dyn.hwm_mb", "MiB"},
            {"trace.job_s", "s"},
            {"trace.overhead_s", "s"},
            {"trace.uncovered_share", "ratio"},
            {"trace.hwm_reset", "bool"}});
  return v;
}

// --- Options, settings, checks -----------------------------------------------

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  unsigned vertices_log2 = 18;
  std::string work_dir = ".bench_build/perfbench-work";
  std::string trace_out;
  std::string fault;
  bool generate = false;
};

Options parse_args(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--generate") {
      o.generate = true;
      continue;
    }
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + a);
    const std::string v = argv[++i];
    if (a == "--workload") {
      o.workload = v;
    } else if (a == "--seed") {
      o.seed = std::stoull(v);
    } else if (a == "--seconds") {
      o.seconds = std::stod(v);
    } else if (a == "--trace") {
      if (v != "0" && v != "1") throw std::invalid_argument("--trace 0|1");
      o.trace = v == "1";
    } else if (a == "--vertices-log2") {
      o.vertices_log2 = static_cast<unsigned>(std::stoul(v));
    } else if (a == "--work-dir") {
      o.work_dir = v;
    } else if (a == "--trace-out") {
      o.trace_out = v;
    } else if (a == "--inject-fault") {
      o.fault = v;
    } else {
      throw std::invalid_argument("unknown argument " + a);
    }
  }
  if (!o.generate &&
      std::find(std::begin(kWorkloads), std::end(kWorkloads), o.workload) ==
          std::end(kWorkloads))
    throw std::invalid_argument("unknown workload '" + o.workload + "'");
  if (o.vertices_log2 < 8 || o.vertices_log2 > 24)
    throw std::invalid_argument("--vertices-log2 must be in [8, 24]");
  if (!o.fault.empty() && o.fault != "cc-label")
    throw std::invalid_argument("unknown fault '" + o.fault + "'");
  return o;
}

/// Thread counts, all explicit and at most min(4, nproc). The dist runtime
/// leaves one of those cores free: its workers meet at a barrier every
/// superstep, so one preempted worker stalls all of them, and on a 4-core
/// host 4 workers ran slower and far less steadily than 3.
/// walk::run_simple_walks_dist takes no worker count: its runtime asks
/// util::thread_count(), whose only knob is $BPART_THREADS. run() sets that
/// to thread_cap itself, once no caller-set BPART_* is left, so the walk and
/// every other thread_count() default stay within min(4, nproc) on any host.
struct Settings {
  unsigned nproc = 1;
  unsigned thread_cap = 1;
  unsigned ingest_threads = 1;
  unsigned dist_workers = 1;
};

Settings resolve_settings() {
  Settings s;
  s.nproc = std::max(1u, std::thread::hardware_concurrency());
  s.thread_cap = std::min(4u, s.nproc);
  s.ingest_threads = s.thread_cap;
  s.dist_workers = std::max(1u, s.thread_cap - 1);
  return s;
}

/// Every output check is one op; a failed check or an exception in a
/// repetition is one failed op.
struct Checks {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  void expect(bool ok, const std::string& what) {
    ++attempted;
    if (!ok) {
      ++failed;
      std::cerr << "CHECK FAILED: " << what << "\n";
    }
  }
};

/// Directory removed (recursively) when the object goes away — on failure
/// paths too.
class TempDir {
 public:
  explicit TempDir(fs::path p) : path_(std::move(p)) {
    fs::remove_all(path_);
    fs::create_directories(path_);
  }
  ~TempDir() {
    std::error_code ec;
    fs::remove_all(path_, ec);
  }
  TempDir(const TempDir&) = delete;
  TempDir& operator=(const TempDir&) = delete;
  [[nodiscard]] const fs::path& path() const { return path_; }

 private:
  fs::path path_;
};

double dir_mb(const fs::path& dir) {
  std::uintmax_t bytes = 0;
  std::error_code ec;
  for (const auto& e : fs::recursive_directory_iterator(dir, ec))
    if (e.is_regular_file(ec)) bytes += e.file_size(ec);
  return static_cast<double>(bytes) / kMiB;
}

// --- Input -------------------------------------------------------------------

/// Write the seed's edge list (one "u v" line per undirected pair, u < v,
/// ascending) unless it is already on disk, and keep only the newest few.
std::string ensure_input(const Options& o) {
  const fs::path dir = fs::path(o.work_dir) / "inputs";
  fs::create_directories(dir);
  const fs::path path = dir / ("g" + std::to_string(o.vertices_log2) +
                               "-seed" + std::to_string(o.seed) + ".txt");
  if (fs::exists(path)) {
    fs::last_write_time(path, fs::file_time_type::clock::now());
    return path.string();
  }
  graph::CommunityGraphConfig cfg;
  cfg.num_vertices = VertexId{1} << o.vertices_log2;
  cfg.avg_degree = kAvgDegree;
  cfg.seed = o.seed;
  const graph::EdgeList el = graph::community_scale_free(cfg);
  std::vector<graph::Edge> pairs;
  pairs.reserve(el.size());
  for (const graph::Edge& e : el.edges())
    if (e.src != e.dst)
      pairs.push_back({std::min(e.src, e.dst), std::max(e.src, e.dst)});
  std::sort(pairs.begin(), pairs.end());
  pairs.erase(std::unique(pairs.begin(), pairs.end()), pairs.end());

  const fs::path tmp = path.string() + ".tmp" + std::to_string(::getpid());
  {
    std::ofstream out(tmp, std::ios::binary);
    std::string buf;
    buf.reserve(1 << 20);
    char num[32];
    for (const graph::Edge& e : pairs) {
      buf.append(num, std::to_chars(num, num + 16, e.src).ptr);
      buf.push_back(' ');
      buf.append(num, std::to_chars(num, num + 16, e.dst).ptr);
      buf.push_back('\n');
      if (buf.size() > (1 << 20) - 64) {
        out.write(buf.data(), static_cast<std::streamsize>(buf.size()));
        buf.clear();
      }
    }
    out.write(buf.data(), static_cast<std::streamsize>(buf.size()));
    if (!out) throw std::runtime_error("cannot write " + tmp.string());
  }
  fs::rename(tmp, path);

  // Prune only inputs of this size, so self-test inputs evict nothing.
  const std::string prefix = "g" + std::to_string(o.vertices_log2) + "-";
  std::vector<fs::directory_entry> files;
  for (const auto& e : fs::directory_iterator(dir))
    if (e.path().extension() == ".txt" &&
        e.path().filename().string().rfind(prefix, 0) == 0)
      files.push_back(e);
  std::sort(files.begin(), files.end(), [](const auto& a, const auto& b) {
    return a.last_write_time() > b.last_write_time();
  });
  for (std::size_t i = kInputsKept; i < files.size(); ++i)
    fs::remove(files[i].path());
  return path.string();
}

/// The input as the benchmark itself reads it — a parser independent of
/// the pipeline's — plus the reference components from a union-find over
/// the text.
struct Input {
  std::string path;
  std::uint64_t bytes = 0;
  std::vector<graph::Edge> pairs;  ///< File order.
  VertexId n = 0;                  ///< max id + 1
  std::vector<VertexId> comp_min;  ///< Min input id of v's component.
  std::uint64_t non_isolated = 0;
};

Input read_input(const std::string& path) {
  Input in;
  in.path = path;
  std::ifstream f(path, std::ios::binary);
  std::string text((std::istreambuf_iterator<char>(f)),
                   std::istreambuf_iterator<char>());
  if (!f && !f.eof()) throw std::runtime_error("cannot read " + path);
  in.bytes = text.size();
  const char* p = text.data();
  const char* end = p + text.size();
  while (p < end) {
    graph::Edge e;
    auto r1 = std::from_chars(p, end, e.src);
    if (r1.ec != std::errc() || r1.ptr >= end || *r1.ptr != ' ')
      throw std::runtime_error("malformed input line in " + path);
    auto r2 = std::from_chars(r1.ptr + 1, end, e.dst);
    if (r2.ec != std::errc() || r2.ptr >= end || *r2.ptr != '\n')
      throw std::runtime_error("malformed input line in " + path);
    p = r2.ptr + 1;
    in.pairs.push_back(e);
    in.n = std::max({in.n, e.src + 1, e.dst + 1});
  }

  std::vector<VertexId> parent(in.n);
  for (VertexId v = 0; v < in.n; ++v) parent[v] = v;
  auto find = [&](VertexId v) {
    while (parent[v] != v) v = parent[v] = parent[parent[v]];
    return v;
  };
  std::vector<std::uint8_t> touched(in.n, 0);
  for (const graph::Edge& e : in.pairs) {
    touched[e.src] = touched[e.dst] = 1;
    const VertexId a = find(e.src);
    const VertexId b = find(e.dst);
    // Link the larger root under the smaller: roots stay component minima.
    if (a != b) parent[std::max(a, b)] = std::min(a, b);
  }
  in.comp_min.resize(in.n);
  for (VertexId v = 0; v < in.n; ++v) in.comp_min[v] = find(v);
  in.non_isolated = static_cast<std::uint64_t>(
      std::count(touched.begin(), touched.end(), 1));
  return in;
}

/// CC labels (input-id order, any label values) describe the same
/// components as the union-find: each label's minimum input id must be the
/// vertex's reference component minimum.
bool same_components(const std::vector<VertexId>& label, const Input& in) {
  if (label.size() != in.n) return false;
  std::vector<VertexId> min_of(in.n, ~VertexId{0});
  for (VertexId v = 0; v < in.n; ++v) {
    if (label[v] >= in.n) return false;
    min_of[label[v]] = std::min(min_of[label[v]], v);
  }
  for (VertexId v = 0; v < in.n; ++v)
    if (min_of[label[v]] != in.comp_min[v]) return false;
  return true;
}

bool ranks_match(const std::vector<double>& got,
                 const std::vector<double>& want) {
  if (got.size() != want.size()) return false;
  for (std::size_t i = 0; i < got.size(); ++i)
    if (!(std::fabs(got[i] - want[i]) <= 1e-10)) return false;
  return true;
}

bool rank_sum_is_one(const std::vector<double>& rank) {
  double sum = 0;
  for (double r : rank) sum += r;
  return std::fabs(sum - 1.0) <= 1e-9;
}

// --- Shared run context ------------------------------------------------------

struct Ctx {
  Options opt;
  Settings set;
  Input in;
  Tracer tr;
  Checks checks;
  fs::path tmp;  ///< Run-private scratch (artifact caches).
  int rep = 0;
  std::vector<double> apply_ms;  ///< dyn apply() latencies, all repetitions.
};

pipeline::PipelineConfig pipeline_config(const Ctx& c, const fs::path& dir) {
  pipeline::PipelineConfig cfg;
  cfg.ingest.threads = c.set.ingest_threads;
  cfg.symmetrize = true;
  cfg.reorder = ReorderMode::kDegree;
  cfg.reorder_seed = c.opt.seed;
  cfg.use_cache = true;
  cfg.cache_dir = dir.string();
  return cfg;
}

dist::DistOptions dist_options(const Ctx& c) {
  dist::DistOptions o;
  o.threads = c.set.dist_workers;  // runtime workers for the 8 machines
  o.exec.threads = 0;              // exec core off (the repository default)
  return o;
}

engine::PageRankConfig pr_config() {
  engine::PageRankConfig cfg;
  cfg.iterations = kPrIterations;
  return cfg;
}

void maybe_corrupt(const Ctx& c, std::vector<VertexId>& label) {
  if (c.opt.fault != "cc-label") return;
  // Flip the label of one vertex that is not its component's minimum.
  for (VertexId v = 0; v < c.in.n; ++v) {
    if (c.in.comp_min[v] != v) {
      label[v] ^= 1;
      return;
    }
  }
}

// --- Layer metrics read from the reports the calls return --------------------

void pipeline_metrics(MetricSet& m, const pipeline::PipelineReport& r,
                      double call_s, double cache_mb) {
  m.set("pipeline.ingest_s", r.ingest.seconds, "s");
  m.set("pipeline.ingest_mb_per_s",
        r.ingest.seconds > 0
            ? static_cast<double>(r.ingest.bytes) / kMiB / r.ingest.seconds
            : 0.0,
        "MiB/s");
  m.set("pipeline.csr_build_s", r.build_seconds, "s");
  m.set("pipeline.reorder_s", r.reorder_seconds, "s");
  m.set("pipeline.cache_s", r.cache_seconds, "s");
  m.set("pipeline.cache_mb", cache_mb, "MiB");
  m.set("pipeline.other_s",
        call_s - (r.ingest.seconds + r.build_seconds + r.reorder_seconds +
                  r.partition_seconds + r.cache_seconds),
        "s");
  m.set("partition.s", r.partition_seconds, "s");
  m.set("partition.vertices_per_s",
        r.partition_seconds > 0
            ? static_cast<double>(r.vertices) / r.partition_seconds
            : 0.0,
        "1/s");
}

void quality_metrics(MetricSet& m, const graph::Graph& g,
                     const partition::Partition& p) {
  const partition::QualityReport q = partition::evaluate(g, p);
  m.set("partition.edge_cut_ratio", q.edge_cut_ratio, "ratio");
  m.set("partition.vertex_bias", q.vertex_summary.bias, "ratio");
  m.set("partition.edge_bias", q.edge_summary.bias, "ratio");
}

void dist_metrics(MetricSet& m, const std::string& app,
                  const cluster::RunReport& run, double call_s) {
  const std::string p = "dist." + app + ".";
  double steps_s = 0;
  double crit = 0;
  for (const cluster::IterationReport& it : run.iterations) {
    steps_s += it.duration_seconds;
    double slowest = 0;
    for (const auto& mc : it.machines)
      slowest = std::max(slowest, mc.compute_seconds);
    crit += slowest;
  }
  const std::vector<double> per_machine = run.compute_seconds_per_machine();
  double mean = 0;
  double max = 0;
  for (double s : per_machine) {
    mean += s;
    max = std::max(max, s);
  }
  mean /= static_cast<double>(std::max<std::size_t>(per_machine.size(), 1));
  m.set(p + "s", call_s, "s");
  m.set(p + "setup_s", call_s - steps_s, "s");
  m.set(p + "supersteps", static_cast<double>(run.iterations.size()),
        "count");
  m.set(p + "crit_compute_s", crit, "s");
  m.set(p + "wait_s", run.total_wait_seconds(), "s");
  m.set(p + "compute_skew", mean > 0 ? max / mean : 0.0, "ratio");
  m.set(p + "mb_sent", static_cast<double>(run.total_bytes_sent()) / kMiB,
        "MiB");
  m.set(p + "messages", static_cast<double>(run.total_messages()), "count");
}

// --- Workloads ---------------------------------------------------------------
//
// Each repetition returns one MetricSet: the end-to-end values (setup_s,
// job_s, work_s, and the workload's named app/quality/serving metrics) and
// the per-layer values. Timed regions hold only calls into the library;
// checks run after them.

/// Cold ETL: text → run_file (ingest, CSR, degree reorder, bpart, cache
/// writes) into an empty cache → dist CC → labels in input ids.
MetricSet rep_etl_cold(Ctx& c) {
  MetricSet m;
  TempDir cache(c.tmp / ("cache-" + std::to_string(c.rep)));
  pipeline::PipelineRunner runner(pipeline_config(c, cache.path()));

  Scope job(c.tr, "job");
  Scope setup(c.tr, "pipeline.run_file");
  pipeline::PipelineRunner::Result res =
      runner.run_file(c.in.path, "bpart", kMachines);
  const double setup_s = setup.stop();
  Scope cc_span(c.tr, "dist.cc");
  engine::ComponentsResult cc =
      dist::connected_components(res.graph, res.partition, dist_options(c));
  const double cc_s = cc_span.stop();
  Scope unperm(c.tr, "pipeline.unpermute");
  std::vector<VertexId> label =
      pipeline::PipelineRunner::unpermute(cc.label, res.perm);
  unperm.stop();
  const double job_s = job.stop();

  const pipeline::PipelineReport& r = runner.report();
  c.checks.expect(!r.graph_cache_hit && !r.partition_cache_hit,
                  "etl-cold: run_file missed the empty cache");
  maybe_corrupt(c, label);
  c.checks.expect(same_components(label, c.in),
                  "etl-cold: dist CC equals the union-find over the input");

  m.set("setup_s", setup_s, "s");
  m.set("job_s", job_s, "s");
  m.set("work_s", job_s - setup_s, "s");
  m.set("cc_s", cc_s, "s");
  pipeline_metrics(m, r, setup_s, dir_mb(cache.path()));
  quality_metrics(m, res.graph, res.partition);
  dist_metrics(m, "cc", cc.run, cc_s);
  return m;
}

/// Results of a cold run_file into a run-scoped cache, so the timed
/// repetitions only read it; plus the engine references for that graph.
struct Primed {
  std::unique_ptr<TempDir> cache;
  std::vector<double> pr_ref;             ///< Input-id order.
  std::vector<std::uint64_t> sssp_ref;    ///< Input-id order.
};

Primed prime_cache(Ctx& c, bool with_sssp) {
  Primed p;
  p.cache = std::make_unique<TempDir>(c.tmp / "primed-cache");
  pipeline::PipelineRunner runner(pipeline_config(c, p.cache->path()));
  pipeline::PipelineRunner::Result res =
      runner.run_file(c.in.path, "bpart", kMachines);
  p.pr_ref = pipeline::PipelineRunner::unpermute(
      engine::pagerank(res.graph, res.partition, pr_config()).rank,
      res.perm);
  if (with_sssp) {
    const VertexId src = pipeline::PipelineRunner::to_internal(0, res.perm);
    p.sssp_ref = pipeline::PipelineRunner::unpermute(
        engine::sssp(res.graph, res.partition, src).distance, res.perm);
  }
  return p;
}

/// Warm analytics: run_file reads graph + partition from the primed cache,
/// then dist PageRank, CC, SSSP from input vertex 0 and |V| 10-step walks.
MetricSet rep_analytics_warm(Ctx& c, const Primed& primed) {
  MetricSet m;
  pipeline::PipelineRunner runner(pipeline_config(c, primed.cache->path()));
  const dist::DistOptions opts = dist_options(c);
  walk::ThreadedWalkConfig wcfg;
  wcfg.length = kWalkLength;
  wcfg.walks_per_vertex = 1;
  wcfg.seed = c.opt.seed;

  Scope job(c.tr, "job");
  Scope setup(c.tr, "pipeline.run_file");
  pipeline::PipelineRunner::Result res =
      runner.run_file(c.in.path, "bpart", kMachines);
  const double setup_s = setup.stop();
  const graph::Graph& g = res.graph;
  const partition::Partition& p = res.partition;

  Scope pr_span(c.tr, "dist.pagerank");
  engine::PageRankResult pr = dist::pagerank(g, p, pr_config(),
                                             dist::PrMode::kPush, opts);
  const double pr_s = pr_span.stop();
  Scope cc_span(c.tr, "dist.cc");
  engine::ComponentsResult cc = dist::connected_components(g, p, opts);
  const double cc_s = cc_span.stop();
  Scope sssp_span(c.tr, "dist.sssp");
  engine::SsspResult sp = dist::sssp(
      g, p, pipeline::PipelineRunner::to_internal(0, res.perm), {}, opts);
  const double sssp_s = sssp_span.stop();
  Scope walk_span(c.tr, "walk.run_simple_walks_dist");
  walk::DistWalkReport walks = walk::run_simple_walks_dist(g, p, wcfg);
  const double walk_s = walk_span.stop();
  Scope unperm(c.tr, "pipeline.unpermute");
  std::vector<double> rank =
      pipeline::PipelineRunner::unpermute(pr.rank, res.perm);
  std::vector<VertexId> label =
      pipeline::PipelineRunner::unpermute(cc.label, res.perm);
  std::vector<std::uint64_t> dist_out =
      pipeline::PipelineRunner::unpermute(sp.distance, res.perm);
  unperm.stop();
  const double job_s = job.stop();

  const pipeline::PipelineReport& r = runner.report();
  c.checks.expect(r.graph_cache_hit && r.partition_cache_hit,
                  "analytics-warm: run_file hit graph and partition");
  c.checks.expect(ranks_match(rank, primed.pr_ref) && rank_sum_is_one(rank),
                  "analytics-warm: dist PageRank within 1e-10 of the engine, "
                  "sum 1");
  maybe_corrupt(c, label);
  c.checks.expect(same_components(label, c.in),
                  "analytics-warm: dist CC equals the union-find");
  c.checks.expect(dist_out == primed.sssp_ref,
                  "analytics-warm: dist SSSP equals engine::sssp");
  c.checks.expect(walks.total_steps == c.in.non_isolated * kWalkLength,
                  "analytics-warm: walk steps = non-isolated |V| x 10");

  m.set("setup_s", setup_s, "s");
  m.set("job_s", job_s, "s");
  m.set("work_s", job_s - setup_s, "s");
  m.set("pagerank_s", pr_s, "s");
  m.set("cc_s", cc_s, "s");
  m.set("sssp_s", sssp_s, "s");
  m.set("walk_s", walk_s, "s");
  pipeline_metrics(m, r, setup_s, dir_mb(primed.cache->path()));
  quality_metrics(m, g, p);
  dist_metrics(m, "pagerank", pr.run, pr_s);
  dist_metrics(m, "cc", cc.run, cc_s);
  dist_metrics(m, "sssp", sp.run, sssp_s);
  dist_metrics(m, "walk", walks.run, walk_s);
  m.set("walk.steps", static_cast<double>(walks.total_steps), "count");
  m.set("walk.message_walks", static_cast<double>(walks.message_walks),
        "count");
  m.set("walk.steps_per_s", static_cast<double>(walks.total_steps) / walk_s,
        "1/s");
  return m;
}

/// Vertex cut: graph from the primed cache → 2ps placement → split-merge
/// rebalance → MirrorGraph → mirror PageRank and CC, results in input ids.
MetricSet rep_vertex_cut(Ctx& c, const Primed& primed) {
  MetricSet m;
  pipeline::PipelineRunner runner(pipeline_config(c, primed.cache->path()));
  const dist::DistOptions opts = dist_options(c);

  Scope job(c.tr, "job");
  Scope setup(c.tr, "setup");
  Scope load(c.tr, "pipeline.load_graph");
  const graph::Graph g = runner.load_graph(c.in.path);
  const double load_s = load.stop();
  Scope place(c.tr, "vcut.place");
  const vcut::EdgePartition ep = vcut::create("2ps")->partition(g, kMachines);
  const double place_s = place.stop();
  Scope sm_span(c.tr, "vcut.split_merge");
  const vcut::SplitMergeResult sm = vcut::split_merge_rebalance(g, ep);
  const double sm_s = sm_span.stop();
  Scope mg_span(c.tr, "vcut.mirror_build");
  const vcut::MirrorGraph mg(g, sm.partition, c.opt.seed);
  const double mg_s = mg_span.stop();
  const double setup_s = setup.stop();

  Scope pr_span(c.tr, "dist.mirror_pagerank");
  engine::PageRankResult pr = dist::mirror_pagerank(mg, pr_config(), opts);
  const double pr_s = pr_span.stop();
  Scope cc_span(c.tr, "dist.mirror_cc");
  engine::ComponentsResult cc = dist::mirror_components(mg, opts);
  const double cc_s = cc_span.stop();
  Scope unperm(c.tr, "pipeline.unpermute");
  const std::vector<VertexId>& perm = runner.permutation();
  std::vector<double> rank = pipeline::PipelineRunner::unpermute(pr.rank, perm);
  std::vector<VertexId> label =
      pipeline::PipelineRunner::unpermute(cc.label, perm);
  unperm.stop();
  const double job_s = job.stop();

  const pipeline::PipelineReport& r = runner.report();
  c.checks.expect(r.graph_cache_hit, "vertex-cut: load_graph hit the cache");
  c.checks.expect(
      static_cast<double>(sm.max_load) <=
          1.05 * static_cast<double>(sm.capacity) + 1e-9,
      "vertex-cut: split-merge max load within 1.05 x capacity");
  c.checks.expect(ranks_match(rank, primed.pr_ref) && rank_sum_is_one(rank),
                  "vertex-cut: mirror PageRank within 1e-10 of the engine, "
                  "sum 1");
  maybe_corrupt(c, label);
  c.checks.expect(same_components(label, c.in),
                  "vertex-cut: mirror CC equals the union-find");

  const vcut::ReplicationReport rep = vcut::replication_report(g, sm.partition);
  m.set("setup_s", setup_s, "s");
  m.set("job_s", job_s, "s");
  m.set("work_s", job_s - setup_s, "s");
  m.set("pagerank_s", pr_s, "s");
  m.set("cc_s", cc_s, "s");
  m.set("vcut.replication_factor", mg.replication_factor(), "copies/vertex");
  m.set("vcut.edge_bias", rep.edge_bias, "ratio");
  pipeline_metrics(m, r, load_s, dir_mb(primed.cache->path()));
  m.set("vcut.place_s", place_s, "s");
  m.set("vcut.split_merge_s", sm_s, "s");
  m.set("vcut.moved_pairs", static_cast<double>(sm.moved_pairs), "count");
  m.set("vcut.mirror_build_s", mg_s, "s");
  dist_metrics(m, "mirror_pagerank", pr.run, pr_s);
  dist_metrics(m, "mirror_cc", cc.run, cc_s);
  return m;
}

/// The arrival trace of dynamic-serve: the input pairs in ext_dynamic's
/// hashed order, split into a base share and directed-edge batches.
struct DynTrace {
  std::vector<graph::Edge> base_pairs;
  std::vector<std::vector<graph::Edge>> batches;  ///< Both directions/pair.
  std::uint64_t arrival_edges = 0;
  VertexId base_n = 0;
};

DynTrace make_dyn_trace(const Input& in) {
  std::vector<graph::Edge> pairs = in.pairs;
  std::sort(pairs.begin(), pairs.end(),
            [](const graph::Edge& a, const graph::Edge& b) {
              const std::uint64_t ha = (a.src * 2654435761u) ^ a.dst;
              const std::uint64_t hb = (b.src * 2654435761u) ^ b.dst;
              return ha != hb ? ha < hb : a < b;
            });
  const auto split = static_cast<std::size_t>(
      static_cast<double>(pairs.size()) * kDynBaseShare);
  DynTrace t;
  t.base_pairs.assign(pairs.begin(), pairs.begin() + split);
  for (const graph::Edge& e : t.base_pairs)
    t.base_n = std::max({t.base_n, e.src + 1, e.dst + 1});
  for (std::size_t i = split; i < pairs.size(); i += kDynBatchEdges / 2) {
    std::vector<graph::Edge> batch;
    for (std::size_t j = i; j < std::min(i + kDynBatchEdges / 2, pairs.size());
         ++j) {
      batch.push_back(pairs[j]);
      batch.push_back({pairs[j].dst, pairs[j].src});
    }
    t.arrival_edges += batch.size();
    t.batches.push_back(std::move(batch));
  }
  return t;
}

/// One closed-loop reader: uniform lookups over the base vertices, which
/// must always resolve to a part; the epoch it observes must never drop.
struct Reader {
  std::atomic<std::uint64_t> lookups{0};
  std::uint64_t out_of_range = 0;
  std::uint64_t epoch_regressions = 0;
};

void reader_loop(const dyn::PartitionService& svc, Reader& r, VertexId n,
                 std::uint64_t seed, const std::atomic<bool>& stop) {
  std::uint64_t x = seed;
  std::uint64_t last_epoch = 0;
  std::uint64_t done = 0;
  while (!stop.load(std::memory_order_relaxed)) {
    for (int i = 0; i < 256; ++i) {
      x += 0x9e3779b97f4a7c15ull;  // splitmix64
      std::uint64_t z = x;
      z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
      z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
      z ^= z >> 31;
      const auto v = static_cast<VertexId>(z % n);
      if (svc.lookup(v) >= kMachines) ++r.out_of_range;
    }
    done += 256;
    r.lookups.store(done, std::memory_order_relaxed);
    const std::uint64_t e = svc.epoch();
    if (e < last_epoch) ++r.epoch_regressions;
    last_epoch = e;
  }
}

/// Dynamic serving: base CSR + bpart + service construction, then one
/// writer replays the arrivals (maintain() every 8th batch and once at the
/// end) while two readers look up parts in a closed loop.
MetricSet rep_dynamic_serve(Ctx& c, const DynTrace& t) {
  MetricSet m;
  dyn::ServiceConfig cfg;
  cfg.stream.threads = 1;  // the single writer scores on its own thread
  cfg.migration_budget = kDynBudget;

  Scope job(c.tr, "job");
  Scope setup(c.tr, "setup");
  Scope csr(c.tr, "graph.base_csr");
  graph::EdgeList base_el;
  base_el.reserve(2 * t.base_pairs.size());
  for (const graph::Edge& e : t.base_pairs)
    base_el.add_undirected(e.src, e.dst);
  graph::Graph base = graph::Graph::from_edges(base_el);
  base_el = graph::EdgeList();
  csr.stop();
  Scope part(c.tr, "partition.bpart");
  partition::Partition p =
      partition::create("bpart")->partition(base, kMachines);
  const double part_s = part.stop();
  Scope construct(c.tr, "dyn.construct");
  dyn::PartitionService svc(std::move(base), std::move(p), cfg);
  construct.stop();
  const double setup_s = setup.stop();

  std::atomic<bool> stop{false};
  Reader readers[kDynReaders];
  std::vector<std::thread> threads;
  double replay_s = 0;
  std::uint64_t lookups = 0;
  std::vector<double> apply_ms;
  std::vector<double> maintain_ms;
  double apply_s = 0;
  double maintain_s = 0;
  std::uint64_t compactions = 0;
  std::uint64_t migrations = 0;
  std::uint64_t new_vertices = 0;
  auto count_lookups = [&] {
    std::uint64_t s = 0;
    for (const Reader& r : readers) s += r.lookups.load();
    return s;
  };
  auto maintain = [&] {
    Scope ms(c.tr, "dyn.maintain");
    const dyn::MaintenanceStats st = svc.maintain();
    const double s = ms.stop();
    maintain_ms.push_back(s * 1e3);
    maintain_s += s;
    compactions += st.compacted ? 1 : 0;
    migrations += st.migrated;
  };
  try {
    for (unsigned i = 0; i < kDynReaders; ++i)
      threads.emplace_back(reader_loop, std::cref(svc), std::ref(readers[i]),
                           t.base_n, c.opt.seed * 1000 + i, std::cref(stop));
    Scope replay(c.tr, "replay");
    const std::uint64_t lookups0 = count_lookups();
    std::size_t done = 0;
    for (const auto& batch : t.batches) {
      Scope as(c.tr, "dyn.apply");
      const dyn::UpdateStats u = svc.apply(batch);
      const double s = as.stop();
      apply_ms.push_back(s * 1e3);
      apply_s += s;
      compactions += u.compacted ? 1 : 0;
      new_vertices += u.new_vertices;
      if (++done % kMaintainEvery == 0) maintain();
    }
    maintain();
    replay_s = replay.stop();
    lookups = count_lookups() - lookups0;
  } catch (...) {
    stop = true;
    for (std::thread& th : threads) th.join();
    throw;
  }
  stop = true;
  for (std::thread& th : threads) th.join();
  const double job_s = job.stop();

  std::uint64_t bad = 0;
  std::uint64_t regressions = 0;
  for (const Reader& r : readers) {
    bad += r.out_of_range;
    regressions += r.epoch_regressions;
  }
  c.checks.expect(bad == 0, "dynamic-serve: every lookup in [0, k)");
  c.checks.expect(regressions == 0,
                  "dynamic-serve: epochs never decrease per reader");
  const dyn::DeltaGraph& dg = svc.graph();
  c.checks.expect(dg.delta_edges().empty() &&
                      dg.base().num_edges() == 2 * c.in.pairs.size() &&
                      dg.num_vertices() == c.in.n,
                  "dynamic-serve: final graph holds every input pair");
  const auto snap = svc.snapshot();
  bool assigned = snap->assigned == snap->part_of.size() &&
                  snap->part_of.size() == dg.num_vertices();
  for (partition::PartId q : snap->part_of) assigned &= q < kMachines;
  c.checks.expect(assigned,
                  "dynamic-serve: final epoch assigns every vertex a part");

  m.set("setup_s", setup_s, "s");
  m.set("job_s", job_s, "s");
  m.set("work_s", replay_s, "s");
  quality_metrics(m, dg.base(), svc.partition_copy());
  m.set("partition.s", part_s, "s");
  m.set("partition.vertices_per_s", static_cast<double>(t.base_n) / part_s,
        "1/s");
  m.set("dyn.update_edges_per_s",
        static_cast<double>(t.arrival_edges) / replay_s, "edges/s");
  c.apply_ms.insert(c.apply_ms.end(), apply_ms.begin(), apply_ms.end());
  m.set("dyn.lookups_per_s", static_cast<double>(lookups) / replay_s,
        "lookups/s");
  m.set("dyn.apply_s", apply_s, "s");
  m.set("dyn.maintain_s", maintain_s, "s");
  m.set("dyn.maintain_p50_ms", perfbench::percentile(maintain_ms, 0.50), "ms");
  m.set("dyn.compactions", static_cast<double>(compactions), "count");
  m.set("dyn.migrations", static_cast<double>(migrations), "count");
  m.set("dyn.new_vertices", static_cast<double>(new_vertices), "count");
  m.set("dyn.epochs_published", static_cast<double>(snap->epoch), "count");
  return m;
}

// --- Reporting ---------------------------------------------------------------

/// The named metrics each workload prints above its result line: printed
/// name, then the key it has in the repetition MetricSet.
std::vector<std::pair<std::string, std::string>> report_names(
    const std::string& w) {
  std::vector<std::pair<std::string, std::string>> v = {
      {"setup_s", "setup_s"}, {"job_s", "job_s"}, {"work_s", "work_s"}};
  if (w == "etl-cold") {
    v.insert(v.end(), {{"cc_s", "cc_s"},
                       {"edge_cut_ratio", "partition.edge_cut_ratio"},
                       {"vertex_bias", "partition.vertex_bias"},
                       {"edge_bias", "partition.edge_bias"}});
  } else if (w == "analytics-warm") {
    v.insert(v.end(), {{"pagerank_s", "pagerank_s"},
                       {"cc_s", "cc_s"},
                       {"sssp_s", "sssp_s"},
                       {"walk_s", "walk_s"},
                       {"edge_cut_ratio", "partition.edge_cut_ratio"},
                       {"vertex_bias", "partition.vertex_bias"},
                       {"edge_bias", "partition.edge_bias"}});
  } else if (w == "vertex-cut") {
    v.insert(v.end(), {{"pagerank_s", "pagerank_s"},
                       {"cc_s", "cc_s"},
                       {"edge_bias", "vcut.edge_bias"},
                       {"replication_factor", "vcut.replication_factor"}});
  } else {
    v.insert(v.end(), {{"edge_cut_ratio", "partition.edge_cut_ratio"},
                       {"vertex_bias", "partition.vertex_bias"},
                       {"edge_bias", "partition.edge_bias"},
                       {"update_edges_per_s", "dyn.update_edges_per_s"},
                       {"update_p50_ms", "dyn.update_p50_ms"},
                       {"update_p95_ms", "dyn.update_p95_ms"},
                       {"lookups_per_s", "dyn.lookups_per_s"}});
  }
  return v;
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

void refuse_bpart_env() {
  for (char** e = environ; *e != nullptr; ++e) {
    if (std::strncmp(*e, "BPART_", 6) == 0) {
      const char* eq = std::strchr(*e, '=');
      const std::string name =
          eq != nullptr ? std::string(*e, static_cast<std::size_t>(eq - *e))
                         : std::string(*e);
      throw std::invalid_argument(
          name + " is set: BPART_* variables change the workload; unset it");
    }
  }
}

int run(const Options& o) {
  const double t_start = perfbench::now_s();
  Ctx c{o, resolve_settings(), {}, Tracer(o.trace), {}, {}, 0, {}};
  // Before any thread starts (see Settings).
  ::setenv("BPART_THREADS", std::to_string(c.set.thread_cap).c_str(), 1);
  TempDir tmp(fs::path(o.work_dir) / "tmp" / std::to_string(::getpid()));
  c.tmp = tmp.path();

  c.in = read_input(ensure_input(o));

  std::cout << "# perfbench config: workload=" << o.workload
            << " seed=" << o.seed << " vertices=" << c.in.n
            << " pairs=" << c.in.pairs.size() << " input_mb="
            << static_cast<double>(c.in.bytes) / kMiB << " k=" << kMachines
            << " build=" << BENCH_BUILD_TYPE << " BPART_SIMD=" << BENCH_SIMD
            << " BPART_NATIVE=" << BENCH_NATIVE << " nproc=" << c.set.nproc
            << " ingest_threads=" << c.set.ingest_threads
            << " dist_workers=" << c.set.dist_workers
            << " walk_workers=" << thread_count(kMachines)
            << " BPART_THREADS=" << c.set.thread_cap
            << " exec_threads=0 partition_stream=sequential"
            << " dyn_writers=1 dyn_readers=" << kDynReaders
            << " dyn_batch_edges=" << kDynBatchEdges
            << " maintain_every=" << kMaintainEvery
            << " dyn_budget=" << kDynBudget << " reorder=degree"
            << " vcut_placer_seed=" << global_seed()
            << " trace=" << (o.trace ? 1 : 0) << "\n";

  std::function<MetricSet()> rep;
  Primed primed;
  DynTrace trace;
  if (o.workload == "etl-cold") {
    rep = [&] { return rep_etl_cold(c); };
  } else if (o.workload == "analytics-warm") {
    primed = prime_cache(c, /*with_sssp=*/true);
    rep = [&] { return rep_analytics_warm(c, primed); };
  } else if (o.workload == "vertex-cut") {
    primed = prime_cache(c, /*with_sssp=*/false);
    rep = [&] { return rep_vertex_cut(c, primed); };
  } else {
    trace = make_dyn_trace(c.in);
    rep = [&] { return rep_dynamic_serve(c, trace); };
  }

  std::vector<MetricSet> reps;
  bool hwm_reset_ok = true;
  const double t0 = perfbench::now_s();
  do {
    c.tr.set_run(c.rep);
    c.tr.reset_overhead();
    MetricSet m;
    // Each job starts from a trimmed heap and, untraced, a reset high-water
    // mark, so its peak is its own; traced runs reset at span boundaries.
    ::malloc_trim(0);
    if (!c.tr.on()) hwm_reset_ok &= perfbench::reset_hwm();
    try {
      m = rep();
    } catch (const std::exception& e) {
      c.checks.expect(false, o.workload + " threw: " + e.what());
      break;
    }
    m.set("peak_rss_mb", perfbench::read_hwm_mb(), "MiB");
    if (c.tr.on()) {
      const int job = c.tr.last("job");
      m.set("trace.overhead_s", c.tr.overhead_s(), "s");
      m.set("trace.uncovered_share", c.tr.uncovered_share(job), "ratio");
    }
    std::printf("# rep %d:", c.rep);
    for (const auto& [name, key] : report_names(o.workload))
      if (m.has(key) && m.unit(key) == "s")
        std::printf(" %s %.4f", name.c_str(), m.get(key));
    if (!c.tr.on()) std::printf(" peak_rss_mb %.1f", m.get("peak_rss_mb"));
    std::printf("\n");
    reps.push_back(std::move(m));
    ++c.rep;
  } while (perfbench::now_s() - t0 < o.seconds || c.rep < kMinReps);

  MetricSet med = perfbench::median_over(reps);
  if (!c.apply_ms.empty()) {  // pooled, so p95 has enough samples above it
    med.set("dyn.update_p50_ms", perfbench::percentile(c.apply_ms, 0.5), "ms");
    med.set("dyn.update_p95_ms", perfbench::percentile(c.apply_ms, 0.95),
            "ms");
  }
  const bool reset_ok = c.tr.on() ? c.tr.hwm_reset_ok() : hwm_reset_ok;
  std::cout << "# perfbench: " << reps.size() << " repetitions in "
            << perfbench::now_s() - t0 << " s (run total "
            << perfbench::now_s() - t_start << " s), per-job VmHWM reset "
            << (reset_ok ? "ok" : "unavailable (peaks since process start)")
            << "; medians below\n";

  MetricSet out;
  if (!o.trace) {
    for (const auto& [name, key] : report_names(o.workload))
      if (med.has(key)) out.set(name, med.get(key), med.unit(key));
    // The first job's peak: later jobs also carry heap the allocator kept
    // from earlier ones, so their peaks grow with the repetition count.
    if (!reps.empty())
      out.set("peak_rss_mb", reps.front().get("peak_rss_mb"), "MiB");
    out.set("failed_ops_ratio",
            c.checks.attempted > 0
                ? static_cast<double>(c.checks.failed) /
                      static_cast<double>(c.checks.attempted)
                : 0.0,
            "ratio");
  }
  for (const std::string& name : out.names())
    std::printf("%-22s %.6g %s\n", name.c_str(), out.get(name),
                out.unit(name).c_str());

  std::vector<std::pair<std::string, double>> result;
  if (o.trace) {
    for (const auto& [name, unit] : per_layer_names()) {
      double v = med.has(name) ? med.get(name) : 0.0;
      if (name == "trace.job_s") v = med.has("job_s") ? med.get("job_s") : 0;
      if (name == "trace.hwm_reset") v = c.tr.hwm_reset_ok() ? 1 : 0;
      const std::string suffix = ".hwm_mb";
      if (name.size() > suffix.size() &&
          name.compare(name.size() - suffix.size(), suffix.size(), suffix) ==
              0)
        v = c.tr.layer_hwm_mb(name.substr(0, name.size() - suffix.size()));
      std::printf("%-30s %.6g %s\n", name.c_str(), v, unit.c_str());
      result.emplace_back(name, v);
    }
    if (!o.trace_out.empty()) c.tr.write_json(o.trace_out);
  } else {
    for (const auto& [name, unit] : kEndToEnd)
      result.emplace_back(name, out.has(name) ? out.get(name) : 0.0);
  }

  const bool correct = c.checks.failed == 0 && !reps.empty();
  std::string line = "{\"correct\": ";
  line += correct ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(c.checks.attempted);
  line += ", \"failed\": " + std::to_string(c.checks.failed);
  line += ", \"metrics\": {";
  const auto units = o.trace ? per_layer_names() : kEndToEnd;
  for (std::size_t i = 0; i < result.size(); ++i) {
    line += (i ? ", \"" : "\"") + result[i].first + "\": {\"value\": " +
            json_number(result[i].second) + ", \"unit\": \"" +
            units[i].second + "\"}";
  }
  line += "}}";
  std::cout.flush();
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    refuse_bpart_env();
    const Options o = parse_args(argc, argv);
    if (o.generate) {
      ensure_input(o);
      return 0;
    }
    return run(o);
  } catch (const std::exception& e) {
    std::cerr << "e2e_bench: " << e.what() << "\n";
    return 2;
  }
}
