#include "graph/io.hpp"

#include <algorithm>
#include <charconv>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <stdexcept>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/env.hpp"
#include "util/thread_pool.hpp"
#include "util/timer.hpp"

namespace bpart::graph {

namespace {

constexpr std::uint64_t kBinaryMagic = 0x42504152542D4731ULL;  // "BPART-G1"
constexpr std::uint32_t kBinaryVersion = 1;

[[noreturn]] void fail(const std::string& what) {
  throw std::runtime_error(what);
}

struct BinaryHeader {
  std::uint64_t magic;
  std::uint32_t version;
  std::uint32_t num_vertices;
  std::uint64_t num_edges;
};

enum class LineKind { kEdge, kSkip, kBad };

/// Parse one line (sans '\n'): leading/trailing spaces, tabs and '\r' are
/// trimmed; blank lines and '#'/'%' comments skip; separators are
/// space/tab/comma; columns after dst are ignored.
LineKind parse_line(const char* b, const char* e, Edge& out) {
  while (b < e && (*b == ' ' || *b == '\t' || *b == '\r')) ++b;
  while (e > b && (e[-1] == ' ' || e[-1] == '\t' || e[-1] == '\r')) --e;
  if (b == e || *b == '#' || *b == '%') return LineKind::kSkip;
  VertexId src = 0;
  VertexId dst = 0;
  const auto r1 = std::from_chars(b, e, src);
  if (r1.ec != std::errc{} || r1.ptr == b || r1.ptr == e) return LineKind::kBad;
  const char sep = *r1.ptr;
  if (sep != ' ' && sep != '\t' && sep != ',') return LineKind::kBad;
  const char* p = r1.ptr + 1;
  while (p < e && (*p == ' ' || *p == '\t')) ++p;
  const auto r2 = std::from_chars(p, e, dst);
  if (r2.ec != std::errc{} || r2.ptr == p) return LineKind::kBad;
  if (r2.ptr != e) {
    const char c = *r2.ptr;
    if (c != ' ' && c != '\t' && c != ',' && c != '\r') return LineKind::kBad;
  }
  out = {src, dst};
  return LineKind::kEdge;
}

constexpr std::size_t kNoError = SIZE_MAX;

/// One newline-aligned byte range [begin, end) of the file: it holds whole
/// lines only, so shards parse independently.
struct TextShard {
  std::size_t begin = 0;
  std::size_t end = 0;
  std::vector<Edge> edges;
  std::size_t bad = kNoError;  ///< Offset of the first malformed line.
};

void parse_shard(const char* text, TextShard& shard) {
  BPART_SPAN("ingest/parse_shard", "bytes",
             static_cast<double>(shard.end - shard.begin));
  const char* p = text + shard.begin;
  const char* const end = text + shard.end;
  while (p < end) {
    const auto* nl = static_cast<const char*>(
        std::memchr(p, '\n', static_cast<std::size_t>(end - p)));
    Edge e;
    switch (parse_line(p, nl != nullptr ? nl : end, e)) {
      case LineKind::kEdge:
        shard.edges.push_back(e);
        break;
      case LineKind::kSkip:
        break;
      case LineKind::kBad:
        shard.bad = static_cast<std::size_t>(p - text);
        return;
    }
    if (nl == nullptr) break;
    p = nl + 1;
  }
}

}  // namespace

EdgeList load_text_edges(const std::string& path, unsigned threads,
                         TextLoadReport* report) {
  BPART_SPAN("ingest/text_file");
  obs::ScopedLatency latency(obs::latency("ingest.text_file"));
  Timer timer;

  std::error_code ec;
  const std::size_t bytes = std::filesystem::file_size(path, ec);
  if (ec) fail("cannot open edge list: " + path);
  auto text = std::make_unique_for_overwrite<char[]>(bytes);
  {
    std::ifstream f(path, std::ios::binary);
    if (!f) fail("cannot open edge list: " + path);
    f.read(text.get(), static_cast<std::streamsize>(bytes));
    if (f.gcount() != static_cast<std::streamsize>(bytes))
      fail("cannot read edge list: " + path);
  }

  // Cut the file into shards that start at line starts. The calling thread
  // reserves every shard's edges for the most its bytes can hold (the
  // shortest edge line, "a b\n", is 4 bytes), so workers never allocate.
  if (threads == 0) threads = thread_count();
  const std::size_t num_shards = std::max<std::size_t>(
      1, std::min<std::size_t>(std::size_t{threads} * kTextShardsPerThread,
                               bytes / kTextMinShardBytes));
  std::vector<TextShard> shards(num_shards);
  const char* const data = text.get();
  std::size_t cut = 0;
  for (std::size_t s = 0; s < num_shards; ++s) {
    shards[s].begin = cut;
    cut = std::max(cut, bytes * (s + 1) / num_shards);
    if (cut < bytes && data[cut - 1] != '\n') {
      const auto* nl =
          static_cast<const char*>(std::memchr(data + cut, '\n', bytes - cut));
      cut = nl != nullptr ? static_cast<std::size_t>(nl - data) + 1 : bytes;
    }
    shards[s].end = cut;
    shards[s].edges.reserve((cut - shards[s].begin) / 4 + 1);
  }

  const auto workers =
      static_cast<unsigned>(std::min<std::size_t>(threads, num_shards));
  const auto parse = [&](std::uint64_t lo, std::uint64_t hi) {
    for (auto s = lo; s < hi; ++s) parse_shard(data, shards[s]);
  };
  parallel_for(0, num_shards, workers, parse);

  for (const TextShard& shard : shards) {
    if (shard.bad == kNoError) continue;
    const auto line = 1 + std::count(data, data + shard.bad, '\n');
    fail(path + ":" + std::to_string(line) + ": byte offset " +
         std::to_string(shard.bad) + ": malformed line (expected 'src dst')");
  }
  text.reset();

  // Concatenate in file order into one exact-size vector, releasing each
  // shard as soon as it is copied.
  std::size_t total = 0;
  for (const TextShard& shard : shards) total += shard.edges.size();
  std::vector<Edge> all;
  all.reserve(total);
  for (TextShard& shard : shards) {
    all.insert(all.end(), shard.edges.begin(), shard.edges.end());
    std::vector<Edge>().swap(shard.edges);
  }
  EdgeList edges(std::move(all));

  obs::counter("ingest.edges").add(total);
  obs::counter("ingest.bytes").add(bytes);
  if (report != nullptr) {
    report->seconds = timer.seconds();
    report->bytes = bytes;
    report->edges = total;
    report->threads = workers;
    report->shards = static_cast<unsigned>(num_shards);
  }
  return edges;
}

void save_text_edges(const EdgeList& edges, const std::string& path) {
  std::ofstream f(path);
  if (!f) fail("cannot write edge list: " + path);
  f << "# bpart edge list: " << edges.num_vertices() << " vertices, "
    << edges.size() << " edges\n";
  for (const Edge& e : edges.edges()) f << e.src << ' ' << e.dst << '\n';
  if (!f) fail("write error on " + path);
}

EdgeList load_binary_edges(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  if (!f) fail("cannot open binary graph: " + path);
  BinaryHeader hdr{};
  f.read(reinterpret_cast<char*>(&hdr), sizeof(hdr));
  if (!f) fail("truncated header in " + path);
  if (hdr.magic != kBinaryMagic)
    fail("bad magic in " + path + " (wrong format or endianness)");
  if (hdr.version != kBinaryVersion)
    fail("unsupported binary graph version " + std::to_string(hdr.version));
  const auto payload = std::filesystem::file_size(path) - sizeof(hdr);
  if (hdr.num_edges > payload / sizeof(Edge))
    fail("truncated edge data in " + path);
  std::vector<Edge> raw(hdr.num_edges);
  f.read(reinterpret_cast<char*>(raw.data()),
         static_cast<std::streamsize>(sizeof(Edge) * raw.size()));
  if (!f) fail("truncated edge data in " + path);
  EdgeList edges(std::move(raw));
  edges.set_num_vertices(hdr.num_vertices);
  return edges;
}

void save_binary_edges(const EdgeList& edges, const std::string& path) {
  std::ofstream f(path, std::ios::binary);
  if (!f) fail("cannot write binary graph: " + path);
  const BinaryHeader hdr{kBinaryMagic, kBinaryVersion, edges.num_vertices(),
                         edges.size()};
  f.write(reinterpret_cast<const char*>(&hdr), sizeof(hdr));
  f.write(reinterpret_cast<const char*>(edges.edges().data()),
          static_cast<std::streamsize>(sizeof(Edge) * edges.size()));
  if (!f) fail("write error on " + path);
}

}  // namespace bpart::graph
