// Tests for the fixed thread pool backing the sharded PH-tree's parallel
// bulk loads and query fan-outs.
#include "common/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

namespace phtree {
namespace {

TEST(ThreadPool, SubmitRunsEveryTask) {
  ThreadPool pool(4);
  std::atomic<int> count{0};
  for (int i = 0; i < 100; ++i) {
    pool.Submit([&count] { count.fetch_add(1); });
  }
  // The destructor drains the queue before joining; scope the pool to force
  // that here.
  {
    ThreadPool inner(2);
    for (int i = 0; i < 50; ++i) {
      inner.Submit([&count] { count.fetch_add(1); });
    }
  }
  while (count.load() < 150) {
    std::this_thread::yield();
  }
  EXPECT_EQ(count.load(), 150);
}

TEST(ThreadPool, ParallelForCoversEveryIndexExactlyOnce) {
  ThreadPool pool(3);
  std::vector<std::atomic<int>> hits(1000);
  pool.ParallelFor(hits.size(), [&hits](size_t i) { hits[i].fetch_add(1); });
  for (size_t i = 0; i < hits.size(); ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ThreadPool, ParallelForSmallAndEdgeCases) {
  ThreadPool pool(2);
  std::atomic<int> count{0};
  pool.ParallelFor(0, [&](size_t) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), 0);
  pool.ParallelFor(1, [&](size_t) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), 1);
  // More tasks than threads, fewer tasks than threads.
  pool.ParallelFor(2, [&](size_t) { count.fetch_add(1); });
  pool.ParallelFor(17, [&](size_t) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), 1 + 2 + 17);
}

TEST(ThreadPool, ParallelForIsReusable) {
  ThreadPool pool(4);
  for (int round = 0; round < 20; ++round) {
    std::atomic<size_t> sum{0};
    pool.ParallelFor(100, [&sum](size_t i) {
      sum.fetch_add(i, std::memory_order_relaxed);
    });
    EXPECT_EQ(sum.load(), 100u * 99u / 2);
  }
}

TEST(ThreadPool, ParallelForFromManyThreadsConcurrently) {
  ThreadPool pool(4);
  std::atomic<size_t> total{0};
  std::vector<std::thread> callers;
  for (int t = 0; t < 4; ++t) {
    callers.emplace_back([&pool, &total] {
      for (int round = 0; round < 10; ++round) {
        pool.ParallelFor(50, [&total](size_t) {
          total.fetch_add(1, std::memory_order_relaxed);
        });
      }
    });
  }
  for (auto& th : callers) {
    th.join();
  }
  EXPECT_EQ(total.load(), 4u * 10u * 50u);
}

TEST(ThreadPool, SingleThreadPoolStillCompletes) {
  ThreadPool pool(1);
  std::vector<int> out(64, 0);
  pool.ParallelFor(out.size(), [&out](size_t i) {
    out[i] = static_cast<int>(i) * 2;
  });
  for (size_t i = 0; i < out.size(); ++i) {
    EXPECT_EQ(out[i], static_cast<int>(i) * 2);
  }
}

TEST(ThreadPool, ParallelForRelaysAThrowAfterEveryOtherIndexRan) {
  ThreadPool pool(3);
  std::vector<std::atomic<int>> hits(64);
  bool caught = false;
  try {
    pool.ParallelFor(hits.size(), [&hits](size_t i) {
      hits[i].fetch_add(1);
      if (i == 13) {
        throw std::runtime_error("index 13");
      }
    });
  } catch (const std::runtime_error& e) {
    caught = true;
    EXPECT_STREQ(e.what(), "index 13");
  }
  EXPECT_TRUE(caught);
  for (size_t i = 0; i < hits.size(); ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "index " << i;
  }
  // The pool is still whole: a later call covers every index again.
  std::atomic<size_t> sum{0};
  pool.ParallelFor(100, [&sum](size_t i) { sum.fetch_add(i); });
  EXPECT_EQ(sum.load(), 100u * 99u / 2);
}

TEST(ThreadPool, ParallelForNestedInsideParallelForCompletes) {
  // Each outer index runs an inner ParallelFor while the only worker is
  // busy with the other outer index; each caller drains its own indices.
  ThreadPool pool(1);
  std::atomic<int> inner{0};
  pool.ParallelFor(2, [&pool, &inner](size_t) {
    pool.ParallelFor(8, [&inner](size_t) { inner.fetch_add(1); });
  });
  EXPECT_EQ(inner.load(), 16);
}

}  // namespace
}  // namespace phtree
