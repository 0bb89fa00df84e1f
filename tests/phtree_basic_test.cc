#include "phtree/phtree.h"

#include <gtest/gtest.h>

#include <vector>

#include "phtree/phtree_d.h"
#include "phtree/phtree_map.h"
#include "phtree/validate.h"

namespace phtree {
namespace {

TEST(PhTreeBasic, EmptyTree) {
  PhTree tree(3);
  EXPECT_EQ(tree.size(), 0u);
  EXPECT_TRUE(tree.empty());
  EXPECT_FALSE(tree.Contains(PhKey{1, 2, 3}));
  EXPECT_FALSE(tree.Erase(PhKey{1, 2, 3}));
  EXPECT_EQ(tree.root(), nullptr);
  EXPECT_EQ(ValidatePhTree(tree), "");
}

TEST(PhTreeBasic, SingleEntry) {
  PhTree tree(2);
  EXPECT_TRUE(tree.Insert(PhKey{5, 7}, 42));
  EXPECT_EQ(tree.size(), 1u);
  EXPECT_EQ(tree.Find(PhKey{5, 7}), std::optional<uint64_t>(42));
  EXPECT_FALSE(tree.Contains(PhKey{5, 8}));
  EXPECT_FALSE(tree.Contains(PhKey{7, 5}));
  EXPECT_EQ(ValidatePhTree(tree), "");
  EXPECT_TRUE(tree.Erase(PhKey{5, 7}));
  EXPECT_EQ(tree.size(), 0u);
  EXPECT_EQ(tree.root(), nullptr);
}

TEST(PhTreeBasic, DuplicateInsertRejected) {
  PhTree tree(2);
  EXPECT_TRUE(tree.Insert(PhKey{5, 7}, 1));
  EXPECT_FALSE(tree.Insert(PhKey{5, 7}, 2));
  EXPECT_EQ(tree.size(), 1u);
  EXPECT_EQ(*tree.Find(PhKey{5, 7}), 1u);  // original payload kept
}

TEST(PhTreeBasic, InsertOrAssignOverwrites) {
  PhTree tree(2);
  EXPECT_TRUE(tree.InsertOrAssign(PhKey{5, 7}, 1));
  EXPECT_FALSE(tree.InsertOrAssign(PhKey{5, 7}, 2));
  EXPECT_EQ(tree.size(), 1u);
  EXPECT_EQ(*tree.Find(PhKey{5, 7}), 2u);
}

TEST(PhTreeBasic, PaperFigure1Example) {
  // Fig. 1b: 4-bit values 0010 and 0001 (placed in the top 4 of 64 bits).
  PhTree tree(1);
  const PhKey a{0b0010ULL << 60};
  const PhKey b{0b0001ULL << 60};
  EXPECT_TRUE(tree.Insert(a, 1));
  EXPECT_TRUE(tree.Insert(b, 2));
  EXPECT_EQ(*tree.Find(a), 1u);
  EXPECT_EQ(*tree.Find(b), 2u);
  // Root holds one sub-node (both values start with 0); the sub-node stores
  // a 1-bit prefix (the shared second 0) per Fig. 1b.
  ASSERT_NE(tree.root(), nullptr);
  EXPECT_EQ(tree.root()->num_entries(), 1u);
  EXPECT_EQ(tree.root()->num_subs(), 1u);
  const Node* sub =
      tree.arena()->NodeAt(tree.root()->OrdinalSub(tree.root()->FirstOrdinal()));
  EXPECT_EQ(sub->infix_len(), 1u);
  EXPECT_EQ(sub->num_entries(), 2u);
  EXPECT_EQ(ValidatePhTree(tree), "");
}

TEST(PhTreeBasic, PaperFigure2Example) {
  // Fig. 2: 2D 4-bit entries (0001,1000), (0011,1000), (0011,1010).
  PhTree tree(2);
  auto k = [](uint64_t x, uint64_t y) {
    return PhKey{x << 60, y << 60};
  };
  EXPECT_TRUE(tree.Insert(k(0b0001, 0b1000), 1));
  EXPECT_TRUE(tree.Insert(k(0b0011, 0b1000), 2));
  EXPECT_TRUE(tree.Insert(k(0b0011, 0b1010), 3));
  EXPECT_EQ(tree.size(), 3u);
  // Root has a single sub-node at address 01.
  ASSERT_NE(tree.root(), nullptr);
  ASSERT_EQ(tree.root()->num_subs(), 1u);
  const uint64_t ord = tree.root()->FirstOrdinal();
  EXPECT_EQ(tree.root()->OrdinalAddr(ord), 0b01u);
  // The sub-node holds all three entries as postfixes with a 2-bit prefix
  // (figure: prefix covers bit-depths 2-3, entries diverge at depth 3...
  // here: shared bits 0 at zb=2 and diverging at zb=3).
  const Node* sub = tree.arena()->NodeAt(tree.root()->OrdinalSub(ord));
  EXPECT_EQ(sub->num_entries(), 3u);
  EXPECT_EQ(sub->num_subs(), 0u);
  EXPECT_EQ(ValidatePhTree(tree), "");
  for (uint64_t v = 1; v <= 3; ++v) {
    EXPECT_TRUE(tree.Contains(
        v == 1 ? k(0b0001, 0b1000) : v == 2 ? k(0b0011, 0b1000)
                                            : k(0b0011, 0b1010)));
  }
}

TEST(PhTreeBasic, StructureIndependentOfInsertionOrder) {
  const std::vector<PhKey> keys = {
      {0xDEAD, 0xBEEF}, {0xDEAD, 0xBEE0}, {0x1234, 0x5678},
      {0x0, 0x0},       {~0ULL, ~0ULL},   {0xDEAD0000, 0xBEEF0000},
      {1, 2},           {2, 1},           {1ULL << 63, 1},
  };
  std::vector<size_t> order(keys.size());
  for (size_t i = 0; i < order.size(); ++i) {
    order[i] = i;
  }
  PhTree reference(2);
  for (size_t i : order) {
    reference.Insert(keys[i], i);
  }
  const PhTreeStats ref_stats = reference.ComputeStats();
  // All permutations (9! too many): rotate + reverse variations.
  for (int variant = 0; variant < 20; ++variant) {
    std::vector<size_t> perm = order;
    std::rotate(perm.begin(), perm.begin() + variant % perm.size(),
                perm.end());
    if (variant % 2 == 1) {
      std::reverse(perm.begin(), perm.end());
    }
    PhTree tree(2);
    for (size_t i : perm) {
      tree.Insert(keys[i], i);
    }
    const PhTreeStats stats = tree.ComputeStats();
    EXPECT_EQ(stats.n_nodes, ref_stats.n_nodes);
    EXPECT_EQ(stats.n_bhc_nodes, ref_stats.n_bhc_nodes);
    EXPECT_EQ(stats.memory_bytes, ref_stats.memory_bytes);
    EXPECT_EQ(stats.max_depth, ref_stats.max_depth);
    EXPECT_EQ(ValidatePhTree(tree), "");
  }
}

TEST(PhTreeBasic, ForEachVisitsAllInZOrder) {
  PhTree tree(2);
  tree.Insert(PhKey{1, 1}, 11);
  tree.Insert(PhKey{1, 2}, 12);
  tree.Insert(PhKey{2, 1}, 21);
  tree.Insert(PhKey{1ULL << 40, 1}, 401);
  std::vector<uint64_t> values;
  tree.ForEach([&](const PhKey&, uint64_t v) { values.push_back(v); });
  ASSERT_EQ(values.size(), 4u);
  // z-order: {1,1} < {1,2} < {2,1} < {2^40,1} (dim 0 = most significant).
  EXPECT_EQ(values, (std::vector<uint64_t>{11, 12, 21, 401}));
}

TEST(PhTreeBasic, MoveConstructionAndAssignment) {
  PhTree a(2);
  a.Insert(PhKey{1, 2}, 3);
  PhTree b = std::move(a);
  EXPECT_EQ(b.size(), 1u);
  EXPECT_TRUE(b.Contains(PhKey{1, 2}));
  PhTree c(2);
  c.Insert(PhKey{9, 9}, 9);
  c = std::move(b);
  EXPECT_EQ(c.size(), 1u);
  EXPECT_TRUE(c.Contains(PhKey{1, 2}));
  EXPECT_FALSE(c.Contains(PhKey{9, 9}));
}

TEST(PhTreeBasic, MaxDepthBoundedByBitWidth) {
  // Worst-case chain: keys diverging at every bit level (paper Fig. 4b,
  // powers of two). Depth must never exceed w = 64.
  PhTree tree(1);
  tree.Insert(PhKey{0}, 0);
  for (uint32_t b = 0; b < 64; ++b) {
    tree.Insert(PhKey{uint64_t{1} << b}, b + 1);
  }
  const PhTreeStats stats = tree.ComputeStats();
  EXPECT_LE(stats.max_depth, 64u);
  EXPECT_EQ(tree.size(), 65u);
  EXPECT_EQ(ValidatePhTree(tree), "");
  for (uint32_t b = 0; b < 64; ++b) {
    EXPECT_TRUE(tree.Contains(PhKey{uint64_t{1} << b}));
  }
}

TEST(PhTreeBasic, HighDimensionalKeys) {
  PhTree tree(40);
  PhKey a(40, 7);
  PhKey b(40, 7);
  b[39] = 8;
  EXPECT_TRUE(tree.Insert(a, 1));
  EXPECT_TRUE(tree.Insert(b, 2));
  EXPECT_EQ(*tree.Find(a), 1u);
  EXPECT_EQ(*tree.Find(b), 2u);
  EXPECT_EQ(ValidatePhTree(tree), "");
}

TEST(PhTreeD, StoresAndFindsDoubles) {
  PhTreeD tree(3);
  EXPECT_TRUE(tree.Insert(PhKeyD{1.5, -2.5, 0.0}, 1));
  EXPECT_TRUE(tree.Insert(PhKeyD{1.5, -2.5, 0.25}, 2));
  EXPECT_EQ(tree.Find(PhKeyD{1.5, -2.5, 0.0}), std::optional<uint64_t>(1));
  EXPECT_FALSE(tree.Contains(PhKeyD{1.5, -2.5, 0.1}));
  // -0.0 and 0.0 are the same key (paper Sect. 3.3).
  EXPECT_FALSE(tree.Insert(PhKeyD{1.5, -2.5, -0.0}, 3));
  EXPECT_TRUE(tree.Erase(PhKeyD{1.5, -2.5, -0.0}));
  EXPECT_EQ(tree.size(), 1u);
}

TEST(PhTreeD, WindowQueryOnDoubles) {
  PhTreeD tree(2);
  tree.Insert(PhKeyD{0.1, 0.1}, 1);
  tree.Insert(PhKeyD{0.5, 0.5}, 2);
  tree.Insert(PhKeyD{-0.5, 0.5}, 3);
  tree.Insert(PhKeyD{0.9, 0.9}, 4);
  const auto hits =
      tree.QueryWindow(PhKeyD{-1.0, 0.0}, PhKeyD{0.6, 1.0});
  ASSERT_EQ(hits.size(), 3u);
  EXPECT_EQ(tree.CountWindow(PhKeyD{0.0, 0.0}, PhKeyD{1.0, 1.0}), 3u);
}

TEST(PhTreeMap, StoresTypedValues) {
  PhTreeMap<std::string> map(2);
  EXPECT_TRUE(map.Insert(PhKey{1, 2}, "hello"));
  EXPECT_TRUE(map.Insert(PhKey{3, 4}, "world"));
  EXPECT_FALSE(map.Insert(PhKey{1, 2}, "dup"));
  ASSERT_NE(map.Find(PhKey{1, 2}), nullptr);
  EXPECT_EQ(*map.Find(PhKey{1, 2}), "hello");
  EXPECT_TRUE(map.Erase(PhKey{1, 2}));
  EXPECT_EQ(map.Find(PhKey{1, 2}), nullptr);
  // Slot reuse after erase.
  EXPECT_TRUE(map.Insert(PhKey{5, 6}, "again"));
  EXPECT_EQ(*map.Find(PhKey{5, 6}), "again");
  EXPECT_EQ(map.size(), 2u);
}

}  // namespace
}  // namespace phtree
