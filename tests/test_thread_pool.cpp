// Tests for the thread pool itself (src/runtime/): completion, exception
// propagation, nested regions, skewed load, concurrent external callers,
// and the parallel primitives built on top of run_chunks.  Determinism of
// the *library* hot paths wired onto the pool is covered separately in
// test_parallel_determinism.cpp.
#include "runtime/thread_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

#include "runtime/global.hpp"
#include "runtime/parallel.hpp"

namespace pslocal::runtime {
namespace {

TEST(ChunkLayout, BoundariesDependOnlyOnNAndGrain) {
  EXPECT_EQ(chunk_count(0, 5), 0u);
  EXPECT_EQ(chunk_count(1, 5), 1u);
  EXPECT_EQ(chunk_count(10, 5), 2u);
  EXPECT_EQ(chunk_count(11, 5), 3u);
  // default_grain is a function of n alone.
  EXPECT_EQ(default_grain(0), 1u);
  EXPECT_EQ(default_grain(100), 100u);     // small loops: one chunk
  EXPECT_EQ(default_grain(2048), 2048u);
  EXPECT_GT(default_grain(1 << 20), 0u);
  EXPECT_LE(chunk_count(1 << 20, default_grain(1 << 20)), 257u);
}

TEST(ThreadPool, SingleLanePoolSpawnsNothingAndCompletes) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.thread_count(), 1u);
  std::vector<int> hits(100, 0);
  parallel_for_each_index(pool, {100, 7}, [&](std::size_t i) { ++hits[i]; });
  EXPECT_EQ(std::accumulate(hits.begin(), hits.end(), 0), 100);
}

TEST(ThreadPool, EveryChunkRunsExactlyOnce) {
  ThreadPool pool(4);
  const std::size_t n = 100'000;
  std::vector<std::atomic<int>> hits(n);
  parallel_for_each_index(pool, {n, 64},
                          [&](std::size_t i) { ++hits[i]; });
  for (std::size_t i = 0; i < n; ++i) ASSERT_EQ(hits[i].load(), 1) << i;
}

TEST(ThreadPool, ReusableAcrossManyRegions) {
  ThreadPool pool(4);
  for (int round = 0; round < 200; ++round) {
    const std::size_t n = 1 + (round * 37) % 500;
    const auto sum = parallel_reduce<std::size_t>(
        pool, {n, 16}, std::size_t{0},
        [](std::size_t lo, std::size_t hi, std::size_t) {
          std::size_t s = 0;
          for (std::size_t i = lo; i < hi; ++i) s += i;
          return s;
        },
        [](std::size_t a, std::size_t b) { return a + b; });
    ASSERT_EQ(sum, n * (n - 1) / 2) << "round " << round;
  }
}

TEST(ThreadPool, EmptyAndTinyRangesAreFine) {
  ThreadPool pool(4);
  int calls = 0;
  parallel_for(pool, {0, 0}, [&](std::size_t, std::size_t) { ++calls; });
  EXPECT_EQ(calls, 0);
  parallel_for_each_index(pool, {1, 0}, [&](std::size_t i) {
    EXPECT_EQ(i, 0u);
    ++calls;
  });
  EXPECT_EQ(calls, 1);
}

TEST(ThreadPool, ExceptionPropagatesAndPoolStaysUsable) {
  ThreadPool pool(4);
  EXPECT_THROW(
      parallel_for_each_index(pool, {10'000, 8},
                              [&](std::size_t i) {
                                if (i == 7777)
                                  throw std::runtime_error("chunk failure");
                              }),
      std::runtime_error);
  // The failed region must not poison the pool.
  std::atomic<std::size_t> count{0};
  parallel_for_each_index(pool, {5000, 8}, [&](std::size_t) { ++count; });
  EXPECT_EQ(count.load(), 5000u);
}

TEST(ThreadPool, FirstOfManyExceptionsWins) {
  ThreadPool pool(4);
  try {
    parallel_for(pool, {64, 1}, [&](std::size_t lo, std::size_t) {
      throw std::runtime_error("boom " + std::to_string(lo));
    });
    FAIL() << "expected an exception";
  } catch (const std::runtime_error& e) {
    EXPECT_EQ(std::string(e.what()).rfind("boom ", 0), 0u);
  }
}

TEST(ThreadPool, NestedParallelForRunsInlineWithoutDeadlock) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(64 * 64);
  parallel_for_each_index(pool, {64, 4}, [&](std::size_t outer) {
    // Inner region from inside a pool chunk: must run inline and not
    // deadlock waiting for workers that are busy with the outer region.
    parallel_for_each_index(pool, {64, 4}, [&](std::size_t inner) {
      ++hits[outer * 64 + inner];
    });
  });
  for (auto& h : hits) ASSERT_EQ(h.load(), 1);
}

TEST(ThreadPool, StalledLaneDoesNotHoldUpTheRegion) {
  ThreadPool pool(4);
  // Chunk 0 is pathologically heavy, the rest are trivial: the lane that
  // claims chunk 0 is stuck on it while the other lanes keep claiming
  // from the shared counter and finish the region.
  std::atomic<std::size_t> done{0};
  parallel_for(pool, {256, 1}, [&](std::size_t lo, std::size_t) {
    if (lo == 0)
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    ++done;
  });
  EXPECT_EQ(done.load(), 256u);
}

TEST(ThreadPool, SkewedLoadCompletesEvenWithManyRegions) {
  ThreadPool pool(8);
  for (int round = 0; round < 20; ++round) {
    std::atomic<std::size_t> done{0};
    parallel_for(pool, {64, 1}, [&](std::size_t lo, std::size_t) {
      if (lo % 17 == 0)
        std::this_thread::sleep_for(std::chrono::microseconds(200));
      ++done;
    });
    ASSERT_EQ(done.load(), 64u) << "round " << round;
  }
}

TEST(ThreadPool, ConcurrentExternalCallersShareOnePool) {
  // Several threads outside the pool submit regions to it at once: each
  // region must still run every chunk exactly once for its own caller.
  ThreadPool pool(4);
  constexpr int kCallers = 4;
  constexpr int kRounds = 200;
  std::atomic<int> wrong{0};
  std::vector<std::thread> callers;
  for (int t = 0; t < kCallers; ++t) {
    callers.emplace_back([&, t] {
      for (int round = 0; round < kRounds; ++round) {
        const std::size_t n = 1 + (static_cast<std::size_t>(round) * 53 +
                                   static_cast<std::size_t>(t) * 997) %
                                      3000;
        const auto sum = parallel_reduce<std::size_t>(
            pool, {n, 8}, std::size_t{0},
            [](std::size_t lo, std::size_t hi, std::size_t) {
              std::size_t s = 0;
              for (std::size_t i = lo; i < hi; ++i) s += i;
              return s;
            },
            [](std::size_t a, std::size_t b) { return a + b; });
        if (sum != n * (n - 1) / 2) ++wrong;
      }
    });
  }
  for (auto& c : callers) c.join();
  EXPECT_EQ(wrong.load(), 0);
}

TEST(ParallelPrimitives, ReduceMatchesSequentialFloatBitForBit) {
  ThreadPool pool(4);
  SequentialScheduler seq;
  const std::size_t n = 200'000;
  std::vector<double> data(n);
  for (std::size_t i = 0; i < n; ++i)
    data[i] = 1.0 / static_cast<double>(i + 1);
  auto run = [&](Scheduler& s) {
    return parallel_reduce<double>(
        s, {n, 0}, 0.0,
        [&](std::size_t lo, std::size_t hi, std::size_t) {
          double acc = 0.0;
          for (std::size_t i = lo; i < hi; ++i) acc += data[i];
          return acc;
        },
        [](double a, double b) { return a + b; });
  };
  // Identical association order => identical rounding => identical bits.
  EXPECT_EQ(run(pool), run(seq));
}

TEST(ParallelPrimitives, RngForChunkIsThreadCountInvariantByConstruction) {
  // Chunk RNGs key on the chunk index, so any scheduler sees the same
  // streams; spot-check reproducibility and pairwise divergence.
  Rng a = rng_for_chunk(42, 0);
  Rng b = rng_for_chunk(42, 0);
  Rng c = rng_for_chunk(42, 1);
  EXPECT_EQ(a.next_u64(), b.next_u64());
  int equal = 0;
  for (int i = 0; i < 64; ++i)
    if (a.next_u64() == c.next_u64()) ++equal;
  EXPECT_LT(equal, 2);
}

TEST(GlobalScheduler, DefaultsToOneLaneAndResizes) {
  // The global pool must stay sequential until a binary opts in.
  Scheduler& before = global_scheduler();
  EXPECT_GE(before.thread_count(), 1u);
  set_global_thread_count(2);
  EXPECT_EQ(global_scheduler().thread_count(), 2u);
  std::atomic<int> hits{0};
  parallel_for_each_index(global_scheduler(), {1000, 0},
                          [&](std::size_t) { ++hits; });
  EXPECT_EQ(hits.load(), 1000);
  set_global_thread_count(1);
  EXPECT_EQ(global_scheduler().thread_count(), 1u);
}

}  // namespace
}  // namespace pslocal::runtime
