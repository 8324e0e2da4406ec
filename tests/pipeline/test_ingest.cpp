#include "pipeline/ingest.hpp"

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <fstream>

#include "graph/generators.hpp"
#include "graph/io.hpp"
#include "util/check.hpp"

namespace bpart::pipeline {
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

void expect_same_edgelist(const graph::EdgeList& a, const graph::EdgeList& b) {
  ASSERT_EQ(a.size(), b.size());
  EXPECT_EQ(a.num_vertices(), b.num_vertices());
  for (std::size_t i = 0; i < a.size(); ++i)
    ASSERT_EQ(a[i], b[i]) << "edge " << i << " differs";
}

TEST_F(IngestTest, MatchesSequentialLoaderOnGeneratedGraph) {
  graph::RmatConfig cfg;
  cfg.scale = 12;
  cfg.edge_factor = 8;
  const graph::EdgeList el = graph::rmat(cfg);
  graph::save_text_edges(el, path("g.txt"));

  const graph::EdgeList seq = graph::load_text_edges(path("g.txt"));
  IngestConfig icfg;
  icfg.threads = 4;
  icfg.batch_edges = 1000;  // force many batches
  IngestReport report;
  const graph::EdgeList par = ingest_text_edges(path("g.txt"), icfg, &report);

  expect_same_edgelist(par, seq);
  EXPECT_EQ(report.edges, seq.size());
  EXPECT_GT(report.batches, 1u);
}

TEST_F(IngestTest, DeterministicAcrossThreadAndShardCounts) {
  graph::ErdosRenyiConfig cfg;
  cfg.num_vertices = 1 << 12;
  cfg.num_edges = 1 << 15;
  graph::save_text_edges(graph::erdos_renyi(cfg), path("g.txt"));

  IngestConfig one;
  one.threads = 1;
  one.shards_per_thread = 1;
  const graph::EdgeList base = ingest_text_edges(path("g.txt"), one);

  for (const unsigned threads : {2u, 3u, 7u}) {
    IngestConfig many;
    many.threads = threads;
    many.shards_per_thread = 5;
    many.batch_edges = 512;
    many.queue_capacity = 3;
    const graph::EdgeList out = ingest_text_edges(path("g.txt"), many);
    expect_same_edgelist(out, base);
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
  IngestConfig cfg;
  cfg.threads = 3;
  const graph::EdgeList el = ingest_text_edges(path("messy.txt"), cfg);
  ASSERT_EQ(el.size(), 5u);
  EXPECT_EQ(el[0], (graph::Edge{0, 1}));
  EXPECT_EQ(el[1], (graph::Edge{1, 2}));
  EXPECT_EQ(el[2], (graph::Edge{2, 3}));
  EXPECT_EQ(el[3], (graph::Edge{3, 4}));
  EXPECT_EQ(el[4], (graph::Edge{4, 5}));
  EXPECT_EQ(el.num_vertices(), 6u);
  // The hardened sequential loader agrees.
  expect_same_edgelist(el, graph::load_text_edges(path("messy.txt")));
}

TEST_F(IngestTest, EmptyAndCommentOnlyFiles) {
  write("empty.txt", "");
  EXPECT_EQ(ingest_text_edges(path("empty.txt")).size(), 0u);
  write("comments.txt", "# nothing\n% here\n\n");
  EXPECT_EQ(ingest_text_edges(path("comments.txt")).size(), 0u);
}

TEST_F(IngestTest, MalformedLineThrowsWithByteOffset) {
  write("bad.txt", "0 1\n1 2\nnot_an_edge\n3 4\n");
  IngestConfig cfg;
  cfg.threads = 4;
  try {
    ingest_text_edges(path("bad.txt"), cfg);
    FAIL() << "expected throw";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("byte offset 8"), std::string::npos) << what;
  }
}

TEST_F(IngestTest, IdAtTheVertexIdLimitThrows) {
  // 4294967295 parses as a uint32_t but is kInvalidVertex; accepting it
  // would wrap the vertex count to 0.
  write("max.txt", "0 1\n1 4294967295\n");
  IngestConfig cfg;
  cfg.threads = 2;
  try {
    ingest_text_edges(path("max.txt"), cfg);
    FAIL() << "expected throw";
  } catch (const CheckError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("4294967295"), std::string::npos) << what;
    EXPECT_NE(what.find("32-bit id limit"), std::string::npos) << what;
  }
}

TEST_F(IngestTest, MissingDstThrows) {
  write("half.txt", "42\n");
  EXPECT_THROW(ingest_text_edges(path("half.txt")), std::runtime_error);
}

TEST_F(IngestTest, MissingFileThrows) {
  EXPECT_THROW(ingest_text_edges(path("nope.txt")), std::runtime_error);
}

TEST_F(IngestTest, LargeFileWithTinyShardsDeliversEveryEdgeExactlyOnce) {
  // Many shards + tiny batches + tiny queue stresses the backpressure and
  // reorder paths; the line count is the ground truth.
  std::ofstream f(path("big.txt"), std::ios::binary);
  constexpr unsigned kEdges = 200000;
  for (unsigned i = 0; i < kEdges; ++i)
    f << i % 997 << ' ' << (i * 7 + 1) % 997 << '\n';
  f.close();

  IngestConfig cfg;
  cfg.threads = 8;
  cfg.shards_per_thread = 8;
  cfg.batch_edges = 256;
  cfg.queue_capacity = 2;
  IngestReport report;
  const graph::EdgeList el = ingest_text_edges(path("big.txt"), cfg, &report);
  ASSERT_EQ(el.size(), kEdges);
  for (unsigned i = 0; i < kEdges; i += 1013) {
    EXPECT_EQ(el[i].src, i % 997);
    EXPECT_EQ(el[i].dst, (i * 7 + 1) % 997);
  }
  EXPECT_GT(report.shards, 1u);
}

TEST_F(IngestTest, NonDeterministicModeDeliversSameEdgeMultiset) {
  graph::ErdosRenyiConfig cfg;
  cfg.num_vertices = 1 << 10;
  cfg.num_edges = 1 << 14;
  const graph::EdgeList el = graph::erdos_renyi(cfg);
  graph::save_text_edges(el, path("g.txt"));

  IngestConfig icfg;
  icfg.threads = 4;
  icfg.deterministic = false;
  icfg.batch_edges = 777;
  graph::EdgeList out = ingest_text_edges(path("g.txt"), icfg);
  ASSERT_EQ(out.size(), el.size());
  EXPECT_EQ(out.num_vertices(), el.num_vertices());
  // Same multiset of edges (order unspecified).
  std::vector<graph::Edge> a(el.edges().begin(), el.edges().end());
  std::vector<graph::Edge> b(out.edges().begin(), out.edges().end());
  std::sort(a.begin(), a.end());
  std::sort(b.begin(), b.end());
  EXPECT_EQ(a, b);
}

}  // namespace
}  // namespace bpart::pipeline
