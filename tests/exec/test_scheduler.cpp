#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <mutex>
#include <numeric>
#include <stdexcept>
#include <utility>
#include <vector>

#include "exec/scheduler.hpp"

namespace bpart::exec {
namespace {

std::vector<graph::EdgeId> offsets_for(
    const std::vector<graph::EdgeId>& degrees) {
  std::vector<graph::EdgeId> offsets(degrees.size() + 1, 0);
  std::partial_sum(degrees.begin(), degrees.end(), offsets.begin() + 1);
  return offsets;
}

TEST(ChunkScheduler, RangeChunksPartitionTheRange) {
  const auto offsets = offsets_for({3, 5, 0, 2, 7, 1, 0, 0, 4, 2});
  const auto plan = ChunkScheduler::over_range(offsets, 0, 10, 6);
  ASSERT_GT(plan.num_chunks(), 1u);
  std::uint32_t expect_lo = 0;
  for (std::size_t c = 0; c < plan.num_chunks(); ++c) {
    const auto [lo, hi] = plan.chunk(c);
    EXPECT_EQ(lo, expect_lo);
    EXPECT_LT(lo, hi);
    expect_lo = hi;
  }
  EXPECT_EQ(expect_lo, 10u);
}

TEST(ChunkScheduler, ChunksRespectEdgeBudget) {
  const std::vector<graph::EdgeId> degrees = {3, 5, 0, 2, 7, 1, 0, 0, 4, 2};
  const auto offsets = offsets_for(degrees);
  const auto plan = ChunkScheduler::over_range(offsets, 0, 10, 8);
  for (std::size_t c = 0; c < plan.num_chunks(); ++c) {
    const auto [lo, hi] = plan.chunk(c);
    // A multi-vertex chunk never exceeds the budget; a single vertex may
    // (hubs become singleton chunks).
    if (hi - lo > 1) {
      EXPECT_LE(offsets[hi] - offsets[lo], 8u);
    }
  }
}

TEST(ChunkScheduler, HubBecomesSingletonChunk) {
  const auto offsets = offsets_for({1, 100, 1, 1});
  const auto plan = ChunkScheduler::over_range(offsets, 0, 4, 8);
  bool hub_alone = false;
  for (std::size_t c = 0; c < plan.num_chunks(); ++c) {
    const auto [lo, hi] = plan.chunk(c);
    if (lo <= 1 && 1 < hi) hub_alone = (hi - lo == 1);
  }
  EXPECT_TRUE(hub_alone);
}

TEST(ChunkScheduler, EmptyRangeHasNoChunks) {
  const auto plan =
      ChunkScheduler::over_range(std::span<const graph::EdgeId>{}, 0, 0, 64);
  EXPECT_EQ(plan.num_chunks(), 0u);
}

TEST(ChunkScheduler, ZeroDegreeTailRidesAlong) {
  const auto offsets = offsets_for({4, 0, 0, 0});
  const auto plan = ChunkScheduler::over_range(offsets, 0, 4, 64);
  ASSERT_EQ(plan.num_chunks(), 1u);
  EXPECT_EQ(plan.chunk(0), (ChunkScheduler::Range{0, 4}));
}

TEST(ChunkScheduler, ListChunksCoverEveryIndex) {
  const std::vector<graph::EdgeId> degrees = {9, 1, 1, 1, 12, 0, 3, 2};
  const auto plan = ChunkScheduler::over_list(
      degrees.size(), [&](std::size_t i) { return degrees[i]; }, 6);
  std::uint32_t expect_lo = 0;
  for (std::size_t c = 0; c < plan.num_chunks(); ++c) {
    const auto [lo, hi] = plan.chunk(c);
    EXPECT_EQ(lo, expect_lo);
    expect_lo = hi;
  }
  EXPECT_EQ(expect_lo, degrees.size());
}

class ExecutorRun : public ::testing::TestWithParam<unsigned> {};

TEST_P(ExecutorRun, EveryChunkExactlyOnce) {
  const std::size_t n = 257;
  std::vector<graph::EdgeId> degrees(n);
  for (std::size_t i = 0; i < n; ++i) degrees[i] = i % 17;
  const auto offsets = offsets_for(degrees);
  const auto plan = ChunkScheduler::over_range(
      offsets, 0, static_cast<graph::VertexId>(n), 32);
  ASSERT_GT(plan.num_chunks(), 4u);

  Executor ex(GetParam());
  std::vector<std::atomic<int>> visits(n);
  for (auto& v : visits) v.store(0);
  const auto stats =
      ex.run(plan, [&](unsigned, std::uint32_t, std::uint32_t lo,
                       std::uint32_t hi) {
        for (std::uint32_t v = lo; v < hi; ++v)
          visits[v].fetch_add(1, std::memory_order_relaxed);
      });
  EXPECT_EQ(stats.chunks, plan.num_chunks());
  for (std::size_t v = 0; v < n; ++v)
    EXPECT_EQ(visits[v].load(), 1) << "vertex " << v;
}

INSTANTIATE_TEST_SUITE_P(Threads, ExecutorRun,
                         ::testing::Values(1u, 2u, 4u, 8u));

TEST(Executor, ChunkExceptionPropagatesAndExecutorStaysUsable) {
  const auto offsets = offsets_for(std::vector<graph::EdgeId>(64, 2));
  const auto plan = ChunkScheduler::over_range(offsets, 0, 64, 4);
  Executor ex(4);
  EXPECT_THROW(
      ex.run(plan,
             [&](unsigned, std::uint32_t c, std::uint32_t, std::uint32_t) {
               if (c == 3) throw std::runtime_error("chunk failed");
             }),
      std::runtime_error);

  // The run above cancelled cleanly; the executor serves the next run.
  std::atomic<std::uint32_t> visited{0};
  const auto stats = ex.run(
      plan, [&](unsigned, std::uint32_t, std::uint32_t lo, std::uint32_t hi) {
        visited.fetch_add(hi - lo, std::memory_order_relaxed);
      });
  EXPECT_EQ(stats.chunks, plan.num_chunks());
  EXPECT_EQ(visited.load(), 64u);
}

TEST(ChunkScheduler, ItemChunksPartitionTheCount) {
  const auto plan = ChunkScheduler::over_items(10, 3);
  ASSERT_EQ(plan.num_chunks(), 4u);
  std::uint32_t expect_lo = 0;
  for (std::size_t c = 0; c < plan.num_chunks(); ++c) {
    const auto [lo, hi] = plan.chunk(c);
    EXPECT_EQ(lo, expect_lo);
    EXPECT_LE(hi - lo, 3u);
    expect_lo = hi;
  }
  EXPECT_EQ(expect_lo, 10u);
}

TEST(ChunkScheduler, ItemChunksExactMultiple) {
  const auto plan = ChunkScheduler::over_items(8, 4);
  ASSERT_EQ(plan.num_chunks(), 2u);
  EXPECT_EQ(plan.chunk(0), (ChunkScheduler::Range{0, 4}));
  EXPECT_EQ(plan.chunk(1), (ChunkScheduler::Range{4, 8}));
}

TEST(ChunkScheduler, ItemChunksEmptyAndSingle) {
  EXPECT_EQ(ChunkScheduler::over_items(0, 5).num_chunks(), 0u);
  const auto one = ChunkScheduler::over_items(3, 100);
  ASSERT_EQ(one.num_chunks(), 1u);
  EXPECT_EQ(one.chunk(0), (ChunkScheduler::Range{0, 3}));
}

TEST(ChunkScheduler, ItemChunksBoundariesIgnoreWorkerCount) {
  // The weight-free mode's contract: the plan is a pure function of
  // (count, items_per_chunk) — running it under different executors
  // visits identical [lo, hi) slices.
  const auto plan = ChunkScheduler::over_items(101, 7);
  std::vector<std::pair<std::uint32_t, std::uint32_t>> expect;
  for (std::size_t c = 0; c < plan.num_chunks(); ++c)
    expect.push_back(plan.chunk(c));
  for (const unsigned threads : {1u, 4u}) {
    Executor ex(threads);
    std::mutex mu;
    std::vector<std::pair<std::uint32_t, std::uint32_t>> seen;
    ex.run(plan,
           [&](unsigned, std::uint32_t, std::uint32_t lo, std::uint32_t hi) {
             std::lock_guard<std::mutex> lock(mu);
             seen.emplace_back(lo, hi);
           });
    std::sort(seen.begin(), seen.end());
    EXPECT_EQ(seen, expect) << threads << " threads";
  }
}

TEST(ChunkScheduler, ItemChunksRejectZeroChunkSize) {
  EXPECT_THROW((void)ChunkScheduler::over_items(5, 0), CheckError);
}

TEST(ChunkScheduler, ListChunksRejectCountPast32Bits) {
  // Chunk bounds are uint32: a list of 2^32 + 1 entries must fail loudly
  // before the first deg() call rather than return wrapped bounds.
  std::uint64_t calls = 0;
  const auto zero_degree = [&](std::size_t) -> std::uint64_t {
    ++calls;
    return 0;
  };
  EXPECT_THROW((void)ChunkScheduler::over_list((std::size_t{1} << 32) + 1,
                                               zero_degree, 0xffffffffu),
               CheckError);
  EXPECT_EQ(calls, 0u);
}

TEST(Executor, SingleThreadNeverSteals) {
  const auto offsets = offsets_for(std::vector<graph::EdgeId>(32, 1));
  const auto plan = ChunkScheduler::over_range(offsets, 0, 32, 2);
  Executor ex(1);
  const auto stats = ex.run(
      plan, [](unsigned, std::uint32_t, std::uint32_t, std::uint32_t) {});
  EXPECT_EQ(stats.steals, 0u);
}

}  // namespace
}  // namespace bpart::exec
