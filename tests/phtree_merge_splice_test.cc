// Targeted coverage of the deletion restructuring paths (paper Sect. 3.6:
// "at most two nodes are modified"): postfix merge-up and sub-node splice,
// including cascades and interaction with representation switching.
#include <gtest/gtest.h>

#include <vector>

#include "common/rng.h"
#include "phtree/phtree.h"
#include "phtree/validate.h"

namespace phtree {
namespace {

// Builds keys that share a long prefix and diverge at chosen bit depths,
// so the resulting chain shape is known exactly.
PhKey KeyWithBits(uint64_t base, std::initializer_list<int> set_bits) {
  uint64_t v = base;
  for (int b : set_bits) {
    v |= uint64_t{1} << b;
  }
  return PhKey{v};
}

TEST(MergeSplice, EraseMergesLastPostfixIntoParent) {
  // Three keys: two diverge deep (forming a child node), one shallower.
  PhTree tree(1);
  const PhKey a = KeyWithBits(0, {1});      // ...0010
  const PhKey b = KeyWithBits(0, {1, 0});   // ...0011
  const PhKey c = KeyWithBits(0, {40});     // diverges at bit 40
  tree.Insert(a, 1);
  tree.Insert(b, 2);
  tree.Insert(c, 3);
  // Structure: root -> node@40 -> {c-postfix, sub -> node@0 {a, b}}.
  ASSERT_EQ(tree.ComputeStats().n_nodes, 3u);
  // Erasing b leaves node@0 with one entry -> must merge `a` upward.
  ASSERT_TRUE(tree.Erase(b));
  EXPECT_EQ(tree.ComputeStats().n_nodes, 2u);
  EXPECT_TRUE(tree.Contains(a));
  EXPECT_TRUE(tree.Contains(c));
  EXPECT_EQ(*tree.Find(a), 1u);
  EXPECT_EQ(ValidatePhTree(tree), "");
}

TEST(MergeSplice, EraseSplicesSingleSubChild) {
  // Force the splice path: a middle node whose only remaining entry is a
  // sub-node. Keys: two deep-diverging keys under a middle node that also
  // holds one postfix; erasing the postfix leaves middle with 1 sub.
  PhTree tree(1);
  const PhKey deep1 = KeyWithBits(0, {50, 1});
  const PhKey deep2 = KeyWithBits(0, {50, 1, 0});
  const PhKey mid = KeyWithBits(0, {50, 30});
  const PhKey other = KeyWithBits(0, {60});
  tree.Insert(deep1, 1);
  tree.Insert(deep2, 2);
  tree.Insert(mid, 3);
  tree.Insert(other, 4);
  // root -> node@60 {other, sub} -> node@30 {mid, sub} -> node@0 {d1,d2}
  const size_t nodes_before = tree.ComputeStats().n_nodes;
  ASSERT_TRUE(tree.Erase(mid));
  // node@30 had {mid-postfix, sub}; now 1 sub -> spliced out: the deep node
  // absorbs its infix.
  EXPECT_EQ(tree.ComputeStats().n_nodes, nodes_before - 1);
  EXPECT_TRUE(tree.Contains(deep1));
  EXPECT_TRUE(tree.Contains(deep2));
  EXPECT_TRUE(tree.Contains(other));
  EXPECT_EQ(ValidatePhTree(tree), "");
  // The spliced structure must equal the from-scratch structure.
  PhTree fresh(1);
  fresh.Insert(deep1, 1);
  fresh.Insert(deep2, 2);
  fresh.Insert(other, 4);
  EXPECT_EQ(tree.ComputeStats().n_nodes, fresh.ComputeStats().n_nodes);
  EXPECT_EQ(tree.ComputeStats().memory_bytes,
            fresh.ComputeStats().memory_bytes);
}

TEST(MergeSplice, RandomisedEraseAlwaysMatchesFreshBuild) {
  // Property: after ANY erase sequence, the tree is bit-identical (in
  // stats) to a tree freshly built from the surviving keys.
  for (uint32_t dim : {1u, 2u, 5u}) {
    Rng rng(0x5EED ^ dim);
    std::vector<PhKey> keys;
    PhTree tree(dim);
    for (int i = 0; i < 600; ++i) {
      PhKey key(dim);
      for (auto& v : key) {
        v = rng.NextU64() & LowMask(10);  // dense, collision-rich
      }
      if (tree.Insert(key, i)) {
        keys.push_back(key);
      }
    }
    // Erase a random half.
    std::vector<PhKey> survivors;
    for (size_t i = 0; i < keys.size(); ++i) {
      if (rng.NextBool(0.5)) {
        ASSERT_TRUE(tree.Erase(keys[i]));
      } else {
        survivors.push_back(keys[i]);
      }
    }
    PhTree fresh(dim);
    for (size_t i = 0; i < survivors.size(); ++i) {
      fresh.Insert(survivors[i], i);
    }
    const auto a = tree.ComputeStats();
    const auto b = fresh.ComputeStats();
    EXPECT_EQ(a.n_nodes, b.n_nodes) << "dim " << dim;
    EXPECT_EQ(a.n_bhc_nodes, b.n_bhc_nodes) << "dim " << dim;
    EXPECT_EQ(a.memory_bytes, b.memory_bytes) << "dim " << dim;
    EXPECT_EQ(a.max_depth, b.max_depth) << "dim " << dim;
    EXPECT_EQ(ValidatePhTree(tree), "");
  }
}

TEST(MergeSplice, SetModeRestructuringKeepsInvariants) {
  PhTreeConfig cfg;
  cfg.store_values = false;
  PhTree tree(3, cfg);
  Rng rng(77);
  std::vector<PhKey> keys;
  for (int i = 0; i < 800; ++i) {
    PhKey key(3);
    for (auto& v : key) {
      v = rng.NextU64() & LowMask(8);
    }
    if (tree.Insert(key, 0)) {
      keys.push_back(key);
    }
  }
  ASSERT_EQ(ValidatePhTree(tree), "");
  for (size_t i = 0; i < keys.size(); i += 2) {
    ASSERT_TRUE(tree.Erase(keys[i]));
  }
  ASSERT_EQ(ValidatePhTree(tree), "");
  for (size_t i = 1; i < keys.size(); i += 2) {
    ASSERT_TRUE(tree.Contains(keys[i]));
  }
}

TEST(MergeSplice, RootIsNeverMergedAway) {
  PhTree tree(2);
  tree.Insert(PhKey{1, 1}, 1);
  tree.Insert(PhKey{1ULL << 63, 1}, 2);  // differs in the very first bit
  // Root holds two postfixes; erasing one leaves the root with a single
  // entry — allowed for the root only.
  ASSERT_TRUE(tree.Erase(PhKey{1, 1}));
  ASSERT_NE(tree.root(), nullptr);
  EXPECT_EQ(tree.root()->num_entries(), 1u);
  EXPECT_EQ(ValidatePhTree(tree), "");
  EXPECT_TRUE(tree.Contains(PhKey{1ULL << 63, 1}));
}

}  // namespace
}  // namespace phtree
