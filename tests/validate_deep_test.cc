// Tests for the deepened structural validator (ValidatePhTreeDeep):
// path-key reconstruction with strict z-order monotonicity, self-lookup of
// every reconstructed key, and the ComputeStats / arena accounting
// cross-checks — across representations, dimensionalities, churn,
// serialisation round-trips and moves.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/rng.h"
#include "phtree/arena.h"
#include "phtree/phtree.h"
#include "phtree/serialize.h"
#include "phtree/stats.h"
#include "phtree/validate.h"

namespace phtree {
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

}  // namespace
}  // namespace phtree
