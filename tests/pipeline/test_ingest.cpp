// The text edge-list parser, graph::load_text_edges: the same EdgeList at
// every thread count, wherever the shard cuts fall, and the same error for
// the same bad input.
#include "graph/io.hpp"

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <random>
#include <stdexcept>
#include <string>
#include <vector>

#include "graph/generators.hpp"
#include "util/check.hpp"

namespace bpart::graph {
namespace {

class IngestTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("bpart_ingest_test_" + std::to_string(::getpid()));
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  [[nodiscard]] std::string path(const std::string& name) const {
    return (dir_ / name).string();
  }

  std::string write(const std::string& name, const std::string& content) {
    std::ofstream f(path(name), std::ios::binary);
    f << content;
    return path(name);
  }

  std::filesystem::path dir_;
};

void expect_same_edgelist(const EdgeList& a, const EdgeList& b) {
  ASSERT_EQ(a.size(), b.size());
  EXPECT_EQ(a.num_vertices(), b.num_vertices());
  for (std::size_t i = 0; i < a.size(); ++i)
    ASSERT_EQ(a[i], b[i]) << "edge " << i << " differs";
}

/// Builds a text file whose byte layout the test controls, recording the
/// edges it writes. Edge lines rotate through CRLF, tab, comma and
/// extra-column styles.
class TextBuilder {
 public:
  void edge_line() {
    const Edge e{static_cast<VertexId>(n_ % 1000),
                 static_cast<VertexId>((n_ * 7 + 3) % 1009)};
    const std::string u = std::to_string(e.src);
    const std::string v = std::to_string(e.dst);
    switch (n_++ % 4) {
      case 0:
        text_ += u + ' ' + v + "\r\n";
        break;
      case 1:
        text_ += u + '\t' + v + '\n';
        break;
      case 2:
        text_ += u + ',' + v + " 0.5\n";
        break;
      default:
        text_ += ' ' + u + "  " + v + " \r\n";
        break;
    }
    edges_.push_back(e);
  }

  /// Raw text, recorded as an edge when it is one.
  void raw(const std::string& s, const std::vector<Edge>& edges = {}) {
    text_ += s;
    edges_.insert(edges_.end(), edges.begin(), edges.end());
  }

  /// Edge lines, then one edge line padded with trailing spaces, so the
  /// text ends exactly at `pos`.
  void fill_to(std::size_t pos) {
    while (text_.size() + 32 < pos) edge_line();
    const std::size_t gap = pos - text_.size();
    ASSERT_GE(gap, 4u);
    raw("1 2" + std::string(gap - 4, ' ') + "\n", {{1, 2}});
  }

  [[nodiscard]] const std::string& text() const { return text_; }
  [[nodiscard]] const std::vector<Edge>& edges() const { return edges_; }

 private:
  std::string text_;
  std::vector<Edge> edges_;
  std::uint64_t n_ = 0;
};

TEST_F(IngestTest, MatchesSequentialLoaderOnGeneratedGraph) {
  RmatConfig cfg;
  cfg.scale = 12;
  cfg.edge_factor = 8;
  const EdgeList el = rmat(cfg);
  save_text_edges(el, path("g.txt"));

  const EdgeList seq = load_text_edges(path("g.txt"), 1);
  TextLoadReport report;
  const EdgeList par = load_text_edges(path("g.txt"), 4, &report);

  expect_same_edgelist(par, seq);
  ASSERT_EQ(par.size(), el.size());
  for (std::size_t i = 0; i < el.size(); ++i) ASSERT_EQ(par[i], el[i]);
  EXPECT_EQ(report.edges, el.size());
  EXPECT_EQ(report.bytes, std::filesystem::file_size(path("g.txt")));
  EXPECT_EQ(report.threads, 4u);
  EXPECT_GT(report.shards, 1u);
}

TEST_F(IngestTest, DeterministicAcrossThreadAndShardCounts) {
  // A 1 MiB file: 2 threads cut it at multiples of 128 KiB (8 shards),
  // 7 and 8 threads at multiples of 64 KiB (16 shards), 3 threads at
  // multiples of 1/12 of the file.
  constexpr std::size_t kBytes = 1 << 20;
  TextBuilder b;
  b.fill_to(128 * 1024 - 4);
  b.raw("5 6\r\n", {{5, 6}});  // The 128 KiB cut falls between '\r' and '\n'.
  b.fill_to(256 * 1024 - 10);
  b.raw("# comment crossing a shard cut\n");
  b.fill_to(384 * 1024 - 1000);
  // A comment longer than a whole shard, so some shards hold no line start.
  b.raw("#" + std::string(150000, 'x') + "\n");
  b.fill_to(kBytes - 3);
  b.raw("8 9", {{8, 9}});  // Final line without '\n'.
  const std::string& text = b.text();
  ASSERT_EQ(text.size(), kBytes);
  ASSERT_EQ(text.substr(128 * 1024 - 1, 2), "\r\n");
  ASSERT_EQ(text[text.rfind('\n', 256 * 1024) + 1], '#');
  ASSERT_GE(text.find('\n', 384 * 1024), 512 * 1024u);
  write("g.txt", text);

  const EdgeList base = load_text_edges(path("g.txt"), 1);
  ASSERT_EQ(base.size(), b.edges().size());
  for (std::size_t i = 0; i < base.size(); ++i)
    ASSERT_EQ(base[i], b.edges()[i]) << "edge " << i;
  EXPECT_EQ(base.num_vertices(), 1009u);

  for (const unsigned threads : {2u, 3u, 7u, 8u}) {
    SCOPED_TRACE(threads);
    TextLoadReport report;
    const EdgeList out = load_text_edges(path("g.txt"), threads, &report);
    expect_same_edgelist(out, base);
    EXPECT_EQ(report.shards,
              std::min<std::size_t>(threads * kTextShardsPerThread,
                                    kBytes / kTextMinShardBytes));
  }
}

TEST_F(IngestTest, HandlesMessyButValidInput) {
  // CRLF line endings, blank CRLF lines, comments, tabs, commas, extra
  // columns (weights), trailing whitespace and a missing final newline —
  // everything a SNAP/KONECT dump can throw at the parser.
  const std::string messy =
      "# SNAP-style comment\r\n"
      "\r\n"
      "0 1\r\n"
      "1\t2 0.5\r\n"
      "% KONECT-style comment\n"
      "2,3\n"
      "   \t\n"
      " 3 4  \r\n"
      "4 5";
  write("messy.txt", messy);
  const EdgeList el = load_text_edges(path("messy.txt"), 3);
  ASSERT_EQ(el.size(), 5u);
  EXPECT_EQ(el[0], (Edge{0, 1}));
  EXPECT_EQ(el[1], (Edge{1, 2}));
  EXPECT_EQ(el[2], (Edge{2, 3}));
  EXPECT_EQ(el[3], (Edge{3, 4}));
  EXPECT_EQ(el[4], (Edge{4, 5}));
  EXPECT_EQ(el.num_vertices(), 6u);
  expect_same_edgelist(el, load_text_edges(path("messy.txt"), 1));
}

TEST_F(IngestTest, EmptyAndCommentOnlyFiles) {
  write("empty.txt", "");
  EXPECT_EQ(load_text_edges(path("empty.txt")).size(), 0u);
  write("comments.txt", "# nothing\n% here\n\n");
  const EdgeList el = load_text_edges(path("comments.txt"));
  EXPECT_EQ(el.size(), 0u);
  EXPECT_EQ(el.num_vertices(), 0u);
}

TEST_F(IngestTest, MalformedLineThrowsWithByteOffset) {
  write("bad.txt", "0 1\n1 2\nnot_an_edge\n3 4\n");
  try {
    load_text_edges(path("bad.txt"), 4);
    FAIL() << "expected throw";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("bad.txt:3: byte offset 8:"), std::string::npos)
        << what;
  }
}

TEST_F(IngestTest, IdAtTheVertexIdLimitThrows) {
  // 4294967295 parses as a uint32_t but is kInvalidVertex; accepting it
  // would wrap the vertex count to 0.
  write("max.txt", "0 1\n1 4294967295\n");
  try {
    load_text_edges(path("max.txt"), 2);
    FAIL() << "expected throw";
  } catch (const CheckError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("4294967295"), std::string::npos) << what;
    EXPECT_NE(what.find("32-bit id limit"), std::string::npos) << what;
  }
}

TEST_F(IngestTest, MissingDstThrows) {
  write("half.txt", "42\n");
  EXPECT_THROW(load_text_edges(path("half.txt")), std::runtime_error);
}

TEST_F(IngestTest, MissingFileThrows) {
  EXPECT_THROW(load_text_edges(path("nope.txt")), std::runtime_error);
  EXPECT_THROW(load_text_edges(dir_.string()), std::runtime_error);
}

TEST_F(IngestTest, LargeFileWithTinyShardsDeliversEveryEdgeExactlyOnce) {
  // 8 threads cut this ~1.5 MiB file into minimum-size shards; the line
  // count is the ground truth.
  std::ofstream f(path("big.txt"), std::ios::binary);
  constexpr unsigned kEdges = 200000;
  for (unsigned i = 0; i < kEdges; ++i)
    f << i % 997 << ' ' << (i * 7 + 1) % 997 << '\n';
  f.close();

  TextLoadReport report;
  const EdgeList el = load_text_edges(path("big.txt"), 8, &report);
  ASSERT_EQ(el.size(), kEdges);
  for (unsigned i = 0; i < kEdges; ++i) {
    ASSERT_EQ(el[i].src, i % 997);
    ASSERT_EQ(el[i].dst, (i * 7 + 1) % 997);
  }
  EXPECT_EQ(report.edges, kEdges);
  EXPECT_EQ(report.shards, report.bytes / kTextMinShardBytes);
  EXPECT_EQ(report.threads, 8u);
}

std::string load_error(const std::string& file, unsigned threads) {
  try {
    load_text_edges(file, threads);
  } catch (const std::runtime_error& e) {
    return e.what();
  }
  return "no error";
}

TEST_F(IngestTest, ErrorsDoNotDependOnThreadCount) {
  // A bad line in the last of 16 shards must cite the same global line
  // number and byte offset as the 1-thread parse.
  TextBuilder b;
  b.fill_to((1 << 20) + 4096);
  const std::size_t bad_offset = b.text().size();
  const std::size_t bad_line =
      1 + std::count(b.text().begin(), b.text().end(), '\n');
  b.raw("12 x7\n");
  b.fill_to((1 << 20) + 8192);
  write("late.txt", b.text());
  const std::string want = path("late.txt") + ":" + std::to_string(bad_line) +
                           ": byte offset " + std::to_string(bad_offset) + ":";
  const std::string at1 = load_error(path("late.txt"), 1);
  EXPECT_EQ(at1.find(want), 0u) << at1;
  EXPECT_EQ(load_error(path("late.txt"), 8), at1);

  // With a second bad line in an earlier shard, the first one in the file
  // wins at every thread count.
  std::string text = b.text();
  const std::size_t early = text.find('\n', 200 * 1024) + 1;
  text.insert(early, "3 4x\n");
  write("early.txt", text);
  const std::string early1 = load_error(path("early.txt"), 1);
  EXPECT_NE(early1.find(": byte offset " + std::to_string(early) + ":"),
            std::string::npos)
      << early1;
  for (const unsigned threads : {2u, 8u})
    EXPECT_EQ(load_error(path("early.txt"), threads), early1);
}

struct Outcome {
  std::vector<Edge> edges;
  VertexId num_vertices = 0;
  std::string error;  ///< Empty when the load succeeded.
};

Outcome load_outcome(const std::string& file, unsigned threads) {
  Outcome out;
  try {
    const EdgeList el = load_text_edges(file, threads);
    out.edges.assign(el.edges().begin(), el.edges().end());
    out.num_vertices = el.num_vertices();
  } catch (const std::runtime_error& e) {
    out.error = e.what();
  } catch (const CheckError& e) {
    out.error = e.what();
  }
  return out;
}

TEST_F(IngestTest, MutatedInputLoadsIdenticallyOrFailsAtEveryThreadCount) {
  // Seeded bit flips, truncations, line splices and huge ids over a ~300
  // KiB corpus that 8 threads cut into 4 shards. Every mutant must load to
  // the same EdgeList at 1 and 8 threads, or fail with the same message.
  TextBuilder corpus;
  corpus.raw("# seed corpus\r\n% with both comment styles\n\n");
  corpus.fill_to(300 * 1024);
  const std::string& seed_text = corpus.text();

  std::mt19937_64 rng(20221013);
  const auto pick = [&](std::size_t n) {
    return static_cast<std::size_t>(rng() % n);
  };
  const auto line_start = [&](const std::string& s, std::size_t pos) {
    const std::size_t nl = s.rfind('\n', pos);
    return nl == std::string::npos ? 0 : nl + 1;
  };
  int loaded = 0;
  int failed = 0;
  for (int i = 0; i < 120; ++i) {
    std::string text = seed_text;
    switch (i % 4) {
      case 0:  // Bit flips.
        for (std::size_t f = 1 + pick(4); f > 0; --f)
          text[pick(text.size())] ^= static_cast<char>(1 << pick(8));
        break;
      case 1:  // Truncation, anywhere.
        text.resize(pick(text.size()));
        break;
      case 2: {  // Splice a run of lines (or a torn fragment) elsewhere.
        const std::size_t from = pick(text.size());
        const std::string run = text.substr(from, 1 + pick(4096));
        if (pick(2) == 0) text.erase(from, run.size());
        text.insert(pick(text.size()), run);
        break;
      }
      default: {  // A line with an id at or past the 32-bit limit.
        const std::size_t at = line_start(text, pick(text.size()));
        text.insert(at, pick(2) == 0 ? "4294967295 1\n" : "1 99999999999\n");
        break;
      }
    }
    write("mutant.txt", text);
    SCOPED_TRACE("mutant " + std::to_string(i));
    const Outcome one = load_outcome(path("mutant.txt"), 1);
    const Outcome eight = load_outcome(path("mutant.txt"), 8);
    EXPECT_EQ(one.error, eight.error);
    EXPECT_EQ(one.num_vertices, eight.num_vertices);
    EXPECT_TRUE(one.edges == eight.edges);
    ++(one.error.empty() ? loaded : failed);
  }
  // The sweep exercises both outcomes.
  EXPECT_GT(loaded, 10);
  EXPECT_GT(failed, 10);
}

}  // namespace
}  // namespace bpart::graph
