// Stress and property tests on the paper's datasets at moderate scale:
// structural invariants after heavy churn, insertion-order independence at
// scale, and the complexity claims of Sect. 3.5/3.6 as testable bounds.
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <vector>

#include "common/rng.h"
#include "datasets/datasets.h"
#include "phtree/phtree.h"
#include "phtree/phtree_d.h"
#include "phtree/validate.h"

namespace phtree {
namespace {

TEST(Stress, ChurnOnClusterDatasetKeepsInvariants) {
  const Dataset ds = GenerateCluster(30000, 3, 0.5, 21);
  PhTreeD tree(3);
  std::vector<size_t> inserted;
  for (size_t i = 0; i < ds.n(); ++i) {
    if (tree.Insert(ds.point(i), i)) {
      inserted.push_back(i);
    }
  }
  ASSERT_EQ(ValidatePhTree(tree.tree()), "");
  Rng rng(5);
  // Five rounds of erase-half / reinsert-half.
  for (int round = 0; round < 5; ++round) {
    for (size_t j = 0; j < inserted.size(); j += 2) {
      ASSERT_TRUE(tree.Erase(ds.point(inserted[j])));
    }
    ASSERT_EQ(ValidatePhTree(tree.tree()), "") << "round " << round;
    for (size_t j = 0; j < inserted.size(); j += 2) {
      ASSERT_TRUE(tree.Insert(ds.point(inserted[j]), j));
    }
    ASSERT_EQ(ValidatePhTree(tree.tree()), "") << "round " << round;
    ASSERT_EQ(tree.size(), inserted.size());
  }
}

TEST(Stress, InsertionOrderIndependenceAtScale) {
  const Dataset ds = GenerateTigerLike(20000, 22);
  PhTreeD forward(2);
  PhTreeD backward(2);
  PhTreeD shuffled(2);
  std::vector<size_t> order(ds.n());
  std::iota(order.begin(), order.end(), 0);
  Rng rng(23);
  for (size_t i = order.size(); i > 1; --i) {
    std::swap(order[i - 1], order[rng.NextBounded(i)]);
  }
  for (size_t i = 0; i < ds.n(); ++i) {
    forward.Insert(ds.point(i), 0);
    backward.Insert(ds.point(ds.n() - 1 - i), 0);
    shuffled.Insert(ds.point(order[i]), 0);
  }
  const auto fs = forward.ComputeStats();
  const auto bs = backward.ComputeStats();
  const auto ss = shuffled.ComputeStats();
  EXPECT_EQ(fs.n_nodes, bs.n_nodes);
  EXPECT_EQ(fs.n_nodes, ss.n_nodes);
  EXPECT_EQ(fs.n_bhc_nodes, bs.n_bhc_nodes);
  EXPECT_EQ(fs.memory_bytes, bs.memory_bytes);
  EXPECT_EQ(fs.memory_bytes, ss.memory_bytes);
  EXPECT_EQ(fs.max_depth, ss.max_depth);
}

TEST(Stress, EraseInsertRoundTripRestoresExactShape) {
  // Deleting and reinserting the same keys must restore the identical
  // structure (shape is a pure function of the content).
  const Dataset ds = GenerateCube(5000, 3, 24);
  PhTreeD tree(3);
  for (size_t i = 0; i < ds.n(); ++i) {
    tree.Insert(ds.point(i), i);
  }
  const auto before = tree.ComputeStats();
  for (size_t i = 0; i < ds.n(); i += 3) {
    ASSERT_TRUE(tree.Erase(ds.point(i)));
  }
  for (size_t i = 0; i < ds.n(); i += 3) {
    ASSERT_TRUE(tree.Insert(ds.point(i), i));
  }
  const auto after = tree.ComputeStats();
  EXPECT_EQ(before.n_nodes, after.n_nodes);
  EXPECT_EQ(before.n_bhc_nodes, after.n_bhc_nodes);
  EXPECT_EQ(before.memory_bytes, after.memory_bytes);
  EXPECT_EQ(before.max_depth, after.max_depth);
}

TEST(Stress, DepthBoundHoldsOnAllPaperDatasets) {
  for (uint32_t k : {2u, 3u, 10u}) {
    for (double offset : {0.4, 0.5}) {
      const Dataset ds = GenerateCluster(20000, k, offset, 25);
      PhTreeD tree(k);
      for (size_t i = 0; i < ds.n(); ++i) {
        tree.InsertOrAssign(ds.point(i), i);
      }
      EXPECT_LE(tree.ComputeStats().max_depth, kBitWidth);
    }
  }
}

TEST(Stress, WindowQueryUnderChurnStaysConsistent) {
  const Dataset ds = GenerateCube(10000, 2, 26);
  PhTreeD tree(2);
  std::vector<bool> present(ds.n(), false);
  Rng rng(27);
  for (int step = 0; step < 20; ++step) {
    // Toggle 1000 random points.
    for (int t = 0; t < 1000; ++t) {
      const size_t i = rng.NextBounded(ds.n());
      if (present[i]) {
        present[i] = !tree.Erase(ds.point(i)) ? present[i] : false;
      } else {
        present[i] = tree.Insert(ds.point(i), i);
      }
    }
    // One random window, checked against the flags.
    const double x = rng.NextDouble(0.0, 0.8);
    const double y = rng.NextDouble(0.0, 0.8);
    const PhKeyD lo{x, y};
    const PhKeyD hi{x + 0.2, y + 0.2};
    size_t expected = 0;
    for (size_t i = 0; i < ds.n(); ++i) {
      if (!present[i]) {
        continue;
      }
      const auto p = ds.point(i);
      if (p[0] >= lo[0] && p[0] <= hi[0] && p[1] >= lo[1] && p[1] <= hi[1]) {
        ++expected;
      }
    }
    ASSERT_EQ(tree.CountWindow(lo, hi), expected) << "step " << step;
  }
}

TEST(Stress, SingleRestrictedDimensionWorstCase) {
  // Paper Sect. 3.5 worst case: boolean-like data queried on one dimension
  // only. The query must still be correct (it degenerates to a near full
  // scan, which is the documented behaviour).
  PhTree tree(8);
  Rng rng(28);
  size_t n_with_one = 0;
  for (int i = 0; i < 4000; ++i) {
    PhKey key(8);
    for (auto& v : key) {
      v = rng.NextBounded(2);
    }
    if (tree.Insert(key, i)) {
      n_with_one += key[3] == 1 ? 1 : 0;
    }
  }
  PhKey lo(8, 0), hi(8, 1);
  lo[3] = 1;  // restrict only dimension 3
  EXPECT_EQ(tree.CountWindow(lo, hi), n_with_one);
}

}  // namespace
}  // namespace phtree
