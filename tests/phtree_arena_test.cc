// Tests for the arena-backed node storage: slab/freelist recycling, exact
// accounting, Clear()-as-reset, and pointer stability across PhTree moves.
#include "phtree/arena.h"

#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "common/rng.h"
#include "phtree/phtree.h"
#include "phtree/serialize.h"
#include "phtree/validate.h"

namespace phtree {
namespace {

std::vector<PhKey> RandomKeys(size_t n, uint32_t dim, uint64_t seed) {
  Rng rng(seed);
  std::vector<PhKey> keys;
  keys.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    PhKey key(dim);
    for (auto& v : key) {
      v = rng.NextU64();
    }
    keys.push_back(std::move(key));
  }
  return keys;
}

// ---- SlabWordPool ---------------------------------------------------------

TEST(SlabWordPool, GrantWordsIsMonotoneAndClassRounded) {
  SlabWordPool pool;
  EXPECT_EQ(pool.GrantWords(1), 1u);
  EXPECT_EQ(pool.GrantWords(2), 2u);
  EXPECT_EQ(pool.GrantWords(3), 4u);
  EXPECT_EQ(pool.GrantWords(5), 8u);
  EXPECT_EQ(pool.GrantWords(SlabWordPool::kMaxClassWords),
            SlabWordPool::kMaxClassWords);
  // Above the largest class: multiples of kMaxClassWords.
  EXPECT_EQ(pool.GrantWords(SlabWordPool::kMaxClassWords + 1),
            2 * SlabWordPool::kMaxClassWords);
  uint64_t prev = 0;
  for (uint64_t w = 1; w < 300; ++w) {
    const uint64_t g = pool.GrantWords(w);
    EXPECT_GE(g, w);
    EXPECT_GE(g, prev);
    prev = g;
  }
}

TEST(SlabWordPool, FreelistRecyclesBlocks) {
  SlabWordPool pool;
  uint64_t granted = 0;
  uint64_t* a = pool.AllocateWords(4, &granted);
  EXPECT_EQ(granted, 4u);
  EXPECT_EQ(pool.LiveBytes(), 4 * sizeof(uint64_t));
  pool.DeallocateWords(a, granted);
  EXPECT_EQ(pool.LiveBytes(), 0u);
  EXPECT_EQ(pool.FreeListBytes(), 4 * sizeof(uint64_t));
  // Same class comes back from the freelist: identical pointer, no new slab.
  const uint64_t slab_bytes = pool.SlabBytes();
  uint64_t* b = pool.AllocateWords(3, &granted);
  EXPECT_EQ(b, a);
  EXPECT_EQ(pool.SlabBytes(), slab_bytes);
  EXPECT_EQ(pool.FreeListBytes(), 0u);
  pool.DeallocateWords(b, granted);
}

TEST(SlabWordPool, LargeBlocksAreTrackedAndReset) {
  SlabWordPool pool;
  uint64_t granted = 0;
  uint64_t* big = pool.AllocateWords(SlabWordPool::kMaxClassWords + 100,
                                     &granted);
  EXPECT_EQ(granted, 2 * SlabWordPool::kMaxClassWords);
  big[0] = 42;  // must be writable over the whole grant
  big[granted - 1] = 43;
  EXPECT_EQ(pool.LiveBytes(), granted * sizeof(uint64_t));
  pool.Reset();  // releases the large block without an explicit deallocate
  EXPECT_EQ(pool.LiveBytes(), 0u);
  EXPECT_EQ(pool.FreeListBytes(), 0u);
}

// ---- NodeArena ------------------------------------------------------------

TEST(NodeArena, RecyclesNodeSlots) {
  NodeArena arena;
  NodeRef a = arena.NewNode(2, 0, 63, true);
  EXPECT_TRUE(arena.Owns(a.ptr));
  EXPECT_EQ(arena.NodeAt(a.handle), a.ptr);
  EXPECT_EQ(arena.live_nodes(), 1u);
  arena.DeleteNode(a);
  EXPECT_EQ(arena.live_nodes(), 0u);
  // The freed slot (and its handle) is reused before any new slab slot.
  NodeRef b = arena.NewNode(3, 1, 10, false);
  EXPECT_EQ(static_cast<void*>(b.ptr), static_cast<void*>(a.ptr));
  EXPECT_EQ(b.handle, a.handle);
  arena.DeleteNode(b);
}

TEST(NodeArena, OwnsRejectsForeignNodes) {
  NodeArena arena;
  NodeArena other;
  NodeRef mine = arena.NewNode(2, 0, 63, true);
  NodeRef foreign = other.NewNode(2, 0, 63, true);
  EXPECT_TRUE(arena.Owns(mine.ptr));
  EXPECT_FALSE(arena.Owns(foreign.ptr));
  EXPECT_FALSE(arena.Owns(nullptr));
  arena.DeleteNode(mine);
  other.DeleteNode(foreign);
}

// ---- PhTree integration ---------------------------------------------------

TEST(PhTreeArena, ExactAccountingMatchesLiveBytes) {
  PhTree tree(3);
  const auto keys = RandomKeys(2000, 3, 17);
  for (const auto& key : keys) {
    tree.Insert(key, 1);
  }
  const PhTreeStats stats = tree.ComputeStats();
  ASSERT_NE(tree.arena(), nullptr);
  // The headline invariant: the per-node sum equals the arena's meter —
  // the space tables measure the allocator, they do not model it.
  EXPECT_EQ(stats.memory_bytes, stats.arena_live_bytes);
  EXPECT_EQ(stats.arena_live_bytes, tree.arena()->LiveBytes());
  EXPECT_GE(stats.arena_slab_bytes,
            stats.arena_live_bytes + stats.arena_freelist_bytes);
  EXPECT_EQ(ValidatePhTree(tree), "");
}

TEST(PhTreeArena, MemoryBytesIsInsertionOrderIndependentUnderChurn) {
  // Build the same content along two different mutation histories: the
  // capacities (and therefore the measured footprint) must agree anyway.
  const auto keys = RandomKeys(600, 2, 29);
  PhTree direct(2);
  for (size_t i = 0; i < 300; ++i) {
    direct.Insert(keys[i], 1);
  }
  PhTree churned(2);
  for (const auto& key : keys) {
    churned.Insert(key, 1);
  }
  for (size_t i = 300; i < keys.size(); ++i) {
    churned.Erase(keys[i]);
  }
  EXPECT_EQ(churned.ComputeStats().memory_bytes,
            direct.ComputeStats().memory_bytes);
}

TEST(PhTreeArena, ClearThenReuse) {
  PhTree tree(2);
  const auto keys = RandomKeys(3000, 2, 31);
  for (const auto& key : keys) {
    tree.Insert(key, 1);
  }
  const uint64_t slab_bytes = tree.arena()->SlabBytes();
  tree.Clear();
  EXPECT_EQ(tree.size(), 0u);
  EXPECT_EQ(tree.arena()->live_nodes(), 0u);
  EXPECT_EQ(tree.arena()->LiveBytes(), 0u);
  // Refill: slabs were retained, so no new reservation is needed.
  for (const auto& key : keys) {
    EXPECT_TRUE(tree.Insert(key, 2));
  }
  EXPECT_EQ(tree.arena()->SlabBytes(), slab_bytes);
  for (const auto& key : keys) {
    EXPECT_EQ(tree.Find(key), std::optional<uint64_t>(2));
  }
  EXPECT_EQ(ValidatePhTree(tree), "");
}

TEST(PhTreeArena, MoveConstructionKeepsNodesValid) {
  PhTree source(3);
  const auto keys = RandomKeys(2000, 3, 41);
  for (const auto& key : keys) {
    source.Insert(key, 9);
  }
  const uint64_t bytes = source.ComputeStats().memory_bytes;
  // The arena lives behind a unique_ptr, so node and word-pool pointers
  // survive the move of the PhTree object itself.
  PhTree moved(std::move(source));
  EXPECT_EQ(moved.size(), keys.size());
  EXPECT_EQ(moved.ComputeStats().memory_bytes, bytes);
  for (const auto& key : keys) {
    EXPECT_TRUE(moved.Contains(key));
  }
  EXPECT_EQ(ValidatePhTree(moved), "");
  // Mutation after the move exercises the transferred arena.
  for (const auto& key : keys) {
    EXPECT_TRUE(moved.Erase(key));
  }
  EXPECT_EQ(moved.size(), 0u);
}

TEST(PhTreeArena, MoveAssignmentReleasesOldTree) {
  const auto keys = RandomKeys(1000, 2, 43);
  PhTree a(2);
  PhTree b(2);
  for (const auto& key : keys) {
    a.Insert(key, 1);
    b.Insert(key, 2);
  }
  a = std::move(b);  // a's old arena (and all its nodes) must free cleanly
  EXPECT_EQ(a.size(), keys.size());
  for (const auto& key : keys) {
    EXPECT_EQ(a.Find(key), std::optional<uint64_t>(2));
  }
  EXPECT_EQ(ValidatePhTree(a), "");
}

TEST(PhTreeArena, MovedFromTreeIsReusable) {
  PhTree source(2);
  source.Insert(PhKey{1, 2}, 3);
  PhTree moved(std::move(source));
  // NOLINTNEXTLINE(bugprone-use-after-move): reuse-after-move is supported.
  EXPECT_EQ(source.size(), 0u);
  EXPECT_TRUE(source.Insert(PhKey{4, 5}, 6));
  EXPECT_TRUE(source.Contains(PhKey{4, 5}));
  EXPECT_TRUE(moved.Contains(PhKey{1, 2}));
  EXPECT_EQ(ValidatePhTree(source), "");
}

TEST(PhTreeArena, FreelistGrowsOnEraseAndShrinksOnReinsert) {
  PhTree tree(2);
  const auto keys = RandomKeys(2000, 2, 47);
  for (const auto& key : keys) {
    tree.Insert(key, 1);
  }
  // Building already trades blocks through the freelists (LHC growth
  // reallocates across size classes), so the baseline is not zero.
  const uint64_t freelist_after_build = tree.arena()->FreeListBytes();
  for (size_t i = 0; i < keys.size() / 2; ++i) {
    tree.Erase(keys[i]);
  }
  const uint64_t freelist_after_erase = tree.arena()->FreeListBytes();
  EXPECT_GT(freelist_after_erase, freelist_after_build);
  const uint64_t slab_bytes = tree.arena()->SlabBytes();
  for (size_t i = 0; i < keys.size() / 2; ++i) {
    tree.Insert(keys[i], 1);
  }
  // Reinsertion drains the freelists instead of reserving new slabs.
  EXPECT_LT(tree.arena()->FreeListBytes(), freelist_after_erase);
  EXPECT_EQ(tree.arena()->SlabBytes(), slab_bytes);
  EXPECT_EQ(ValidatePhTree(tree), "");
}

TEST(PhTreeArena, SerializeRoundTripBuildsIntoDestinationArena) {
  PhTree tree(3);
  const auto keys = RandomKeys(1200, 3, 53);
  for (size_t i = 0; i < keys.size(); ++i) {
    tree.Insert(keys[i], i);
  }
  const std::vector<uint8_t> bytes = SerializePhTree(tree);
  std::optional<PhTree> loaded = DeserializePhTree(bytes);
  ASSERT_TRUE(loaded.has_value());
  ASSERT_NE(loaded->arena(), nullptr);
  EXPECT_EQ(loaded->arena()->live_nodes(),
            tree.ComputeStats().n_nodes);
  // Identical content => identical measured footprint (shape and capacities
  // are pure functions of the stored entries).
  EXPECT_EQ(loaded->ComputeStats().memory_bytes,
            tree.ComputeStats().memory_bytes);
  EXPECT_EQ(ValidatePhTree(*loaded), "");
}

}  // namespace
}  // namespace phtree
