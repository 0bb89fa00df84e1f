// Concurrency tests for the thread-safe wrapper (paper Sect. 5 extension).
#include "phtree/phtree_sync.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <filesystem>
#include <iterator>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"

namespace phtree {
namespace {

TEST(PhTreeSync, BasicOperations) {
  PhTreeSync tree(2);
  EXPECT_TRUE(tree.Insert(PhKey{1, 2}, 3));
  EXPECT_FALSE(tree.Insert(PhKey{1, 2}, 4));
  EXPECT_EQ(tree.Find(PhKey{1, 2}), std::optional<uint64_t>(3));
  EXPECT_EQ(tree.CountWindow(PhKey{0, 0}, PhKey{5, 5}), 1u);
  EXPECT_TRUE(tree.Erase(PhKey{1, 2}));
  EXPECT_EQ(tree.size(), 0u);
}

size_t ThreadCount() {
  return static_cast<size_t>(
      std::distance(std::filesystem::directory_iterator("/proc/self/task"),
                    std::filesystem::directory_iterator()));
}

TEST(PhTreeSync, StartsNoThreads) {
  // One shard means every fan-out has one task and runs inline, so the
  // tree never resolves the shared thread pool.
  if (!std::filesystem::exists("/proc/self/task")) {
    GTEST_SKIP() << "no /proc/self/task";
  }
  const size_t before = ThreadCount();
  {
    PhTreeSync tree(2);
    std::vector<PhEntry> entries;
    for (uint64_t i = 0; i < 500; ++i) {
      entries.push_back(PhEntry{PhKey{i << 40, i * 7}, i});
    }
    EXPECT_EQ(tree.BulkLoad(entries), 500u);
    EXPECT_TRUE(tree.Insert(PhKey{1, 1}, 1));
    EXPECT_FALSE(tree.InsertOrAssign(PhKey{1, 1}, 2));
    EXPECT_EQ(tree.Update(PhKey{1, 1}, PhKey{2, 2}), UpdateOutcome::kMoved);
    EXPECT_EQ(tree.TryUpdate(PhKey{2, 2}, PhKey{1, 1}), UpdateOutcome::kMoved);
    EXPECT_TRUE(tree.Erase(PhKey{1, 1}));
    EXPECT_TRUE(tree.Contains(entries[3].key));
    EXPECT_EQ(tree.Find(entries[4].key), std::optional<uint64_t>(4));
    const std::vector<PhKey> batch{entries[5].key, PhKey{3, 3}};
    EXPECT_EQ(tree.FindBatch(batch).size(), 2u);
    const PhKey lo{0, 0};
    const PhKey hi{~uint64_t{0}, ~uint64_t{0}};
    EXPECT_EQ(tree.QueryWindow(lo, hi).size(), 500u);
    size_t visited = 0;
    tree.QueryWindow(lo, hi, [&](const PhKey&, uint64_t) { ++visited; });
    EXPECT_EQ(visited, 500u);
    EXPECT_EQ(tree.CountWindow(lo, hi), 500u);
    EXPECT_EQ(tree.QueryWindowPage(lo, hi, 10).entries.size(), 10u);
    EXPECT_EQ(tree.KnnSearch(lo, 5).size(), 5u);
    size_t each = 0;
    tree.ForEach([&](const PhKey&, uint64_t) { ++each; });
    EXPECT_EQ(each, 500u);
    EXPECT_EQ(tree.ComputeStats().n_entries, 500u);
    const std::string path = testing::TempDir() + "/sync_no_threads.pht";
    ASSERT_TRUE(tree.Save(path).ok());
    tree.Clear();
    EXPECT_EQ(tree.size(), 0u);
    ASSERT_TRUE(tree.Load(path).ok());
    EXPECT_EQ(tree.size(), 500u);
    std::remove(path.c_str());
  }
  EXPECT_EQ(ThreadCount(), before);
}

TEST(PhTreeSync, ConcurrentDisjointWriters) {
  PhTreeSync tree(2);
  constexpr int kThreads = 4;
  constexpr int kPerThread = 5000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&tree, t] {
      Rng rng(100 + t);
      for (int i = 0; i < kPerThread; ++i) {
        // Disjoint key ranges per thread.
        const PhKey key{(static_cast<uint64_t>(t) << 32) | rng.NextU64() %
                            0xFFFFFFFF,
                        rng.NextU64()};
        tree.InsertOrAssign(key, t);
      }
    });
  }
  for (auto& th : threads) {
    th.join();
  }
  EXPECT_GT(tree.size(), 0u);
  EXPECT_LE(tree.size(), static_cast<size_t>(kThreads) * kPerThread);
}

TEST(PhTreeSync, ReadersDuringWrites) {
  PhTreeSync tree(2);
  for (uint64_t i = 0; i < 1000; ++i) {
    tree.Insert(PhKey{i, i}, i);
  }
  std::atomic<bool> stop{false};
  std::atomic<size_t> reads{0};
  std::atomic<bool> failed{false};
  std::vector<std::thread> readers;
  for (int t = 0; t < 2; ++t) {
    readers.emplace_back([&] {
      Rng rng(7);
      // Bounded iterations: unbounded spinning readers starve the writer
      // through the shared lock on single-core machines.
      for (int iter = 0; iter < 3000 && !stop.load(); ++iter) {
        const uint64_t i = rng.NextBounded(1000);
        // Keys 0..999 are never removed; they must always be visible.
        if (!tree.Contains(PhKey{i, i})) {
          failed = true;
        }
        if (iter % 64 == 0 &&
            tree.CountWindow(PhKey{0, 0}, PhKey{~0ULL, ~0ULL}) < 1000) {
          failed = true;
        }
        reads.fetch_add(1, std::memory_order_relaxed);
        std::this_thread::yield();
      }
    });
  }
  // Writer churns extra keys above the protected range.
  std::thread writer([&] {
    Rng rng(8);
    for (int i = 0; i < 5000; ++i) {
      const PhKey key{1000 + rng.NextBounded(500), rng.NextBounded(500)};
      if (rng.NextBool(0.5)) {
        tree.InsertOrAssign(key, i);
      } else {
        tree.Erase(key);
      }
    }
  });
  writer.join();
  stop = true;
  for (auto& th : readers) {
    th.join();
  }
  EXPECT_FALSE(failed.load());
  EXPECT_GT(reads.load(), 0u);
}

TEST(PhTreeSync, ConcurrentChurnRecyclesArenaSafely) {
  // Insert/erase churn from several writers hammers the arena freelists
  // (node blocks are recycled constantly). The wrapper's
  // writer lock must make that safe: under ASan this is the test that
  // catches a double-free or use-after-recycle in the slab allocator.
  PhTreeSync tree(2);
  constexpr int kThreads = 4;
  constexpr int kOps = 4000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&tree, t] {
      Rng rng(200 + t);
      for (int i = 0; i < kOps; ++i) {
        // Small shared key space => high collision rate => constant node
        // splits and merges across threads.
        const PhKey key{rng.NextBounded(256), rng.NextBounded(256)};
        if (rng.NextBool(0.5)) {
          tree.InsertOrAssign(key, static_cast<uint64_t>(t));
        } else {
          tree.Erase(key);
        }
      }
    });
  }
  for (auto& th : threads) {
    th.join();
  }
  const PhTreeStats stats = tree.ComputeStats();
  EXPECT_LE(stats.n_entries, 256u * 256u);
  // Accounting stayed exact through the churn: copy-on-write publications
  // may leave nodes retired but not yet past their grace period, and the
  // arena's live-byte meter carries them alongside the reachable bytes.
  EXPECT_EQ(stats.memory_bytes + stats.arena_retired_bytes,
            stats.arena_live_bytes);
}

}  // namespace
}  // namespace phtree
