// Tests for the deepened structural validator (ValidatePhTreeDeep):
// path-key reconstruction with strict z-order monotonicity, self-lookup of
// every reconstructed key, and the ComputeStats / arena accounting
// cross-checks — across representations, dimensionalities, churn,
// serialisation round-trips and moves.
#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "common/rng.h"
#include "phtree/arena.h"
#include "phtree/phtree.h"
#include "phtree/serialize.h"
#include "phtree/stats.h"
#include "phtree/validate.h"

namespace phtree {

/// Plants one violation of an arena law at a time, through the pool's
/// private state, so each rejection can be asserted by name.
class ArenaCorrupter {
 public:
  /// Unlinks the first block of the first non-empty freelist and drops it,
  /// with its bytes, from the freelist meter: its granules are carved but
  /// lie in no block. Returns the dropped block's words (0: none).
  static uint64_t LeakOneFreeBlock(SlabWordPool& pool) {
    for (uint32_t cls = 1; cls < SlabWordPool::kNumClasses; ++cls) {
      const NodeHandle h = pool.free_[cls];
      if (h != kInvalidNodeHandle) {
        const uint64_t words = cls * SlabWordPool::kGranuleWords;
        pool.free_[cls] = static_cast<NodeHandle>(pool.At(h)[words - 1]);
        pool.free_bytes_ -= words * sizeof(uint64_t);
        return words;
      }
    }
    return 0;
  }

  /// Carves a live block of `words` words at the bump cursor as the pool
  /// would, except that it starts `line_off` words past the next line
  /// boundary whatever the line rule says. Returns its handle, or
  /// kInvalidNodeHandle if it does not fit the current slab.
  static NodeHandle CarveAtLineOffset(SlabWordPool& pool, uint64_t words,
                                      uint64_t line_off) {
    constexpr uint64_t kLine = SlabWordPool::kLineWords;
    const uint64_t off = ((pool.slab_off_ + kLine - 1) & ~(kLine - 1)) +
                         line_off;
    if (pool.slabs_.empty() || off + words > SlabWordPool::kSlabWords) {
      return kInvalidNodeHandle;
    }
    const uint64_t slab = pool.slabs_[pool.cur_slab_];
    pool.ParkRun(slab, pool.slab_off_, off);
    pool.slab_off_ = off + words;
    pool.live_bytes_ += words * sizeof(uint64_t);
    return SlabWordPool::EncodeHandle(slab, off / SlabWordPool::kGranuleWords);
  }

  /// Moves the bump cursor back by `words` words, so the last block
  /// carved lies past the carved granules.
  static void RewindCursor(SlabWordPool& pool, uint64_t words) {
    pool.slab_off_ -= words;
  }

  /// Moves the live-byte meter by `delta` bytes.
  static void DriftLiveBytes(SlabWordPool& pool, uint64_t delta) {
    pool.live_bytes_ += delta;
  }

  /// Moves the freelist meter by `delta` bytes.
  static void DriftFreeListBytes(SlabWordPool& pool, uint64_t delta) {
    pool.free_bytes_ += delta;
  }
};

namespace {

PhKey RandomKey(Rng& rng, uint32_t dim, uint32_t key_bits) {
  PhKey key(dim);
  for (auto& v : key) {
    v = rng.NextU64() & LowMask(key_bits);
  }
  return key;
}

TEST(ValidateDeepTest, EmptyAndSingleEntry) {
  PhTree tree(3);
  EXPECT_EQ(ValidatePhTreeDeep(tree), "");
  ASSERT_TRUE(tree.Insert(PhKey{1, 2, 3}, 42));
  EXPECT_EQ(ValidatePhTreeDeep(tree), "");
  ASSERT_TRUE(tree.Erase(PhKey{1, 2, 3}));
  EXPECT_EQ(ValidatePhTreeDeep(tree), "");
}

TEST(ValidateDeepTest, HoldsAcrossReprsAndDims) {
  // Every tree mixes layouts under the one rule: LHC everywhere, BHC for
  // the dense sub-free leaves of the low-dimensional trees.
  for (const bool store_values : {true, false}) {
    for (const uint32_t dim : {1u, 2u, 3u, 8u, 16u}) {
      PhTreeConfig cfg;
      cfg.store_values = store_values;
      PhTree tree(dim, cfg);
      Rng rng(dim * 31 + (store_values ? 0 : 1));
      for (int i = 0; i < 1500; ++i) {
        tree.Insert(RandomKey(rng, dim, dim <= 3 ? 8 : 2), rng.NextU64());
      }
      ASSERT_EQ(ValidatePhTreeDeep(tree), "")
          << "dim " << dim << " store_values " << store_values;
      const PhTreeStats stats = tree.ComputeStats();
      EXPECT_GT(stats.n_lhc_nodes, 0u) << "dim " << dim;
      if (dim <= 3) {
        EXPECT_GT(stats.n_bhc_nodes, 0u) << "dim " << dim;
      }
    }
  }
}

TEST(ValidateDeepTest, HoldsUnderChurn) {
  PhTree tree(2);
  Rng rng(7);
  std::vector<PhKey> keys;
  for (int i = 0; i < 3000; ++i) {
    keys.push_back(RandomKey(rng, 2, 6));
    tree.Insert(keys.back(), i);
  }
  for (int round = 0; round < 4; ++round) {
    for (size_t i = round; i < keys.size(); i += 3) {
      tree.Erase(keys[i]);
    }
    ASSERT_EQ(ValidatePhTreeDeep(tree), "") << "round " << round;
    for (size_t i = round; i < keys.size(); i += 3) {
      tree.Insert(keys[i], round);
    }
    ASSERT_EQ(ValidatePhTreeDeep(tree), "") << "round " << round;
  }
}

TEST(ValidateDeepTest, HoldsInKeyOnlyMode) {
  PhTreeConfig cfg;
  cfg.store_values = false;
  PhTree tree(3, cfg);
  Rng rng(11);
  for (int i = 0; i < 2000; ++i) {
    tree.Insert(RandomKey(rng, 3, 5), rng.NextU64());
  }
  // Key-only postfix entries report payload 0; the self-lookup comparison
  // must treat that consistently on both sides.
  EXPECT_EQ(ValidatePhTreeDeep(tree), "");
}

TEST(ValidateDeepTest, HoldsAfterSerializeRoundTripAndMove) {
  PhTree tree(4);
  Rng rng(23);
  for (int i = 0; i < 2000; ++i) {
    tree.Insert(RandomKey(rng, 4, 4), rng.NextU64());
  }
  const std::vector<uint8_t> bytes = SerializePhTree(tree);
  Expected<PhTree, SnapshotError> loaded = DeserializePhTreeOr(bytes);
  ASSERT_TRUE(loaded.has_value()) << loaded.error().ToString();
  EXPECT_EQ(ValidatePhTreeDeep(*loaded), "");

  PhTree moved = std::move(*loaded);
  EXPECT_EQ(ValidatePhTreeDeep(moved), "");
}

TEST(ValidateDeepTest, HoldsAfterClearAndRefill) {
  PhTree tree(2);
  Rng rng(5);
  for (int i = 0; i < 1000; ++i) {
    tree.Insert(RandomKey(rng, 2, 10), i);
  }
  tree.Clear();
  EXPECT_EQ(ValidatePhTreeDeep(tree), "");
  for (int i = 0; i < 1000; ++i) {
    tree.Insert(RandomKey(rng, 2, 10), i);
  }
  EXPECT_EQ(ValidatePhTreeDeep(tree), "");
}

TEST(ValidateDeepTest, ShallowValidatorStillWorks) {
  PhTree tree(2);
  Rng rng(13);
  for (int i = 0; i < 500; ++i) {
    tree.Insert(RandomKey(rng, 2, 8), i);
  }
  EXPECT_EQ(ValidatePhTree(tree), "");
}

TEST(ValidateDeepTest, HoldsUnderMvccWithRetiredBlocks) {
  // Retired nodes keep their blocks until reclaimed: the ownership audit
  // counts them beside the reachable ones, and none may overlap.
  EpochManager epochs;
  PhTree tree(3);
  tree.EnableMvcc(&epochs);
  Rng rng(17);
  std::vector<PhKey> keys;
  for (int i = 0; i < 800; ++i) {
    keys.push_back(RandomKey(rng, 3, 12));
    tree.Insert(keys.back(), i);
  }
  EpochManager::ReadGuard guard(epochs);
  for (size_t i = 0; i < keys.size(); i += 3) {
    tree.Erase(keys[i]);
  }
  ASSERT_GT(tree.arena()->retired_nodes(), 0u);
  EXPECT_EQ(ValidatePhTreeDeep(tree), "");
}

TEST(ValidateDeepTest, RejectsASecondParentOfOneChild) {
  // Two sibling leaves of identical shape under the root: pointing the
  // second sub entry at the first child leaves every count, byte sum and
  // even every reconstructed key intact (both leaves hold the same
  // postfixes), so only the block-ownership audit can tell.
  PhTree tree(2);
  for (const uint64_t x : {uint64_t{0}, uint64_t{1} << 63}) {
    ASSERT_TRUE(tree.Insert(PhKey{x, 0}, 1));
    ASSERT_TRUE(tree.Insert(PhKey{x, 1}, 1));
  }
  ASSERT_EQ(ValidatePhTreeDeep(tree), "");
  auto* root = const_cast<Node*>(tree.root());
  const uint64_t ord_a = root->FindOrdinal(0b00);
  const uint64_t ord_b = root->FindOrdinal(0b10);
  ASSERT_NE(ord_a, Node::kNoOrdinal);
  ASSERT_NE(ord_b, Node::kNoOrdinal);
  ASSERT_TRUE(root->OrdinalIsSub(ord_a) && root->OrdinalIsSub(ord_b));
  const NodeHandle a = root->OrdinalSub(ord_a);
  ASSERT_EQ(tree.arena()->NodeAt(a)->MemoryBytes(),
            tree.arena()->NodeAt(root->OrdinalSub(ord_b))->MemoryBytes());
  root->PublishSubAt(ord_b, a);
  EXPECT_EQ(ValidatePhTree(tree), "");  // the shallow walk cannot tell
  const std::string deep = ValidatePhTreeDeep(tree);
  EXPECT_NE(deep.find("owned twice"), std::string::npos) << deep;
}

// ---- Planted arena-law violations -----------------------------------------

/// A valid tree whose root holds two sub-node leaves of two entries each.
PhTree TwoLeafTree() {
  PhTree tree(2);
  for (const uint64_t x : {uint64_t{0}, uint64_t{1} << 63}) {
    EXPECT_TRUE(tree.Insert(PhKey{x, 0}, 1));
    EXPECT_TRUE(tree.Insert(PhKey{x, 1}, 1));
  }
  EXPECT_EQ(ValidatePhTreeDeep(tree), "");
  return tree;
}

SlabWordPool& PoolOf(const PhTree& tree) {
  return const_cast<SlabWordPool&>(tree.arena()->pool());
}

/// Copies the root's first child into block `to` of the same pool, points
/// the root at the copy and frees the child's old block.
void MoveFirstChildTo(PhTree& tree, NodeHandle to) {
  auto* root = const_cast<Node*>(tree.root());
  const uint64_t ord = root->FirstOrdinal();
  ASSERT_TRUE(root->OrdinalIsSub(ord));
  const NodeHandle from = root->OrdinalSub(ord);
  const uint64_t words = tree.arena()->NodeAt(from)->BlockWords();
  SlabWordPool& pool = PoolOf(tree);
  std::memcpy(pool.At(to), pool.At(from), words * sizeof(uint64_t));
  root->PublishSubAt(ord, to);
  pool.Deallocate(from, words);
}

TEST(ValidateDeepTest, RejectsALeakedGranule) {
  // A freelist block unlinked and dropped with its bytes: every meter and
  // every node still agree, so only the granule law can tell.
  PhTree tree = TwoLeafTree();
  ASSERT_GT(tree.arena()->FreeListBytes(), 0u);
  ASSERT_GT(ArenaCorrupter::LeakOneFreeBlock(PoolOf(tree)), 0u);
  EXPECT_EQ(ValidatePhTree(tree), "");
  const std::string deep = ValidatePhTreeDeep(tree);
  EXPECT_NE(deep.find("leaked granules"), std::string::npos) << deep;
}

TEST(ValidateDeepTest, RejectsABlockTouchingAnExtraLine) {
  // A leaf of at most one line moved to start 6 words into a line touches
  // two lines; its grant, the meters and the granule law still hold.
  PhTree tree = TwoLeafTree();
  const Node* root = tree.root();
  const uint64_t words =
      tree.arena()->NodeAt(root->OrdinalSub(root->FirstOrdinal()))
          ->BlockWords();
  ASSERT_GE(words, 4u);
  ASSERT_LE(words, SlabWordPool::kLineWords);
  const NodeHandle to =
      ArenaCorrupter::CarveAtLineOffset(PoolOf(tree), words, 6);
  ASSERT_NE(to, kInvalidNodeHandle);
  MoveFirstChildTo(tree, to);
  EXPECT_EQ(ValidatePhTree(tree), "");
  const std::string deep = ValidatePhTreeDeep(tree);
  EXPECT_NE(deep.find("touches more cache lines than its size needs"),
            std::string::npos)
      << deep;
}

TEST(ValidateDeepTest, RejectsAHandleThatIsNotItsGrant) {
  // A leaf copied into a large block: its handle names a block of
  // kMaxClassWords * 2 words, not the one its contents are granted.
  PhTree tree = TwoLeafTree();
  const SlabWordPool::Block big =
      PoolOf(tree).Allocate(SlabWordPool::kMaxClassWords + 1);
  ASSERT_NE(big.words, nullptr);
  MoveFirstChildTo(tree, big.handle);
  const std::string deep = ValidatePhTreeDeep(tree);
  EXPECT_NE(deep.find("node block is not exactly its grant"),
            std::string::npos)
      << deep;
}

TEST(ValidateDeepTest, RejectsABlockOutsideTheCarvedGranules) {
  // A leaf moved to a line-aligned block that the cursor then forgets:
  // the block is its grant and every meter agrees, but the cursor would
  // carve it again.
  PhTree tree = TwoLeafTree();
  const Node* root = tree.root();
  const uint64_t words =
      tree.arena()->NodeAt(root->OrdinalSub(root->FirstOrdinal()))
          ->BlockWords();
  const NodeHandle to =
      ArenaCorrupter::CarveAtLineOffset(PoolOf(tree), words, 0);
  ASSERT_NE(to, kInvalidNodeHandle);
  ArenaCorrupter::RewindCursor(PoolOf(tree), words);
  MoveFirstChildTo(tree, to);
  EXPECT_EQ(ValidatePhTree(tree), "");
  const std::string deep = ValidatePhTreeDeep(tree);
  EXPECT_NE(deep.find("outside the granules the bump cursor carved"),
            std::string::npos)
      << deep;
}

TEST(ValidateDeepTest, RejectsABlockFreedTwice) {
  // A free block pushed onto its freelist again links to itself, with the
  // live-byte meter restored: the freelist walk meets the block twice.
  PhTree tree = TwoLeafTree();
  SlabWordPool& pool = PoolOf(tree);
  NodeHandle h = kInvalidNodeHandle;
  uint64_t words = 0;
  pool.ForEachFreeBlock([&](NodeHandle f, uint64_t w) {
    if (h == kInvalidNodeHandle) {
      h = f;
      words = w;
    }
  });
  ASSERT_NE(h, kInvalidNodeHandle);
  pool.Deallocate(h, words);
  ArenaCorrupter::DriftLiveBytes(pool, words * sizeof(uint64_t));
  EXPECT_EQ(ValidatePhTree(tree), "");
  const std::string deep = ValidatePhTreeDeep(tree);
  EXPECT_NE(deep.find("owned twice"), std::string::npos) << deep;
}

TEST(ValidateDeepTest, RejectsLiveByteMeterDrift) {
  PhTree tree = TwoLeafTree();
  ArenaCorrupter::DriftLiveBytes(PoolOf(tree), 16);
  const std::string deep = ValidatePhTreeDeep(tree);
  EXPECT_NE(deep.find("arena live bytes"), std::string::npos) << deep;
}

TEST(ValidateDeepTest, RejectsFreelistMeterDrift) {
  PhTree tree = TwoLeafTree();
  ArenaCorrupter::DriftFreeListBytes(PoolOf(tree), 16);
  EXPECT_EQ(ValidatePhTree(tree), "");
  const std::string deep = ValidatePhTreeDeep(tree);
  EXPECT_NE(deep.find("!= arena freelist bytes"), std::string::npos) << deep;
}

}  // namespace
}  // namespace phtree
