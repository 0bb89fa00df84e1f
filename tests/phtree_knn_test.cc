// kNN search (paper Sect. 5 extension): results must match brute force in
// both supported metrics, on uniform and clustered data, and a query's heap
// allocations must not grow with the tree.
#include "phtree/knn.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/rng.h"
#include "datasets/datasets.h"
#include "heap_count.h"
#include "phtree/phtree.h"
#include "phtree/phtree_d.h"

namespace phtree {
namespace {

double BruteDist2Int(const PhKey& a, const PhKey& b) {
  double s = 0;
  for (size_t d = 0; d < a.size(); ++d) {
    const double delta =
        static_cast<double>(a[d] > b[d] ? a[d] - b[d] : b[d] - a[d]);
    s += delta * delta;
  }
  return s;
}

TEST(Knn, EmptyTree) {
  PhTree tree(2);
  EXPECT_TRUE(KnnSearch(tree, PhKey{0, 0}, 5).empty());
}

TEST(Knn, ZeroNeighbours) {
  PhTree tree(2);
  tree.Insert(PhKey{1, 1}, 1);
  EXPECT_TRUE(KnnSearch(tree, PhKey{0, 0}, 0).empty());
}

TEST(Knn, FewerEntriesThanRequested) {
  PhTree tree(2);
  tree.Insert(PhKey{1, 1}, 1);
  tree.Insert(PhKey{2, 2}, 2);
  const auto res = KnnSearch(tree, PhKey{0, 0}, 10);
  EXPECT_EQ(res.size(), 2u);
}

TEST(Knn, MatchesBruteForceIntegerMetric) {
  Rng rng(31);
  for (uint32_t dim : {1u, 2u, 3u, 5u}) {
    PhTree tree(dim);
    std::vector<PhKey> keys;
    for (int i = 0; i < 500; ++i) {
      PhKey key(dim);
      for (auto& v : key) {
        v = rng.NextU64() & 0xFFFFFF;
      }
      if (tree.Insert(key, i)) {
        keys.push_back(key);
      }
    }
    for (int q = 0; q < 20; ++q) {
      PhKey center(dim);
      for (auto& v : center) {
        v = rng.NextU64() & 0xFFFFFF;
      }
      const size_t k = 1 + rng.NextBounded(10);
      auto result = KnnSearch(tree, center, k);
      ASSERT_EQ(result.size(), std::min(k, keys.size()));
      // Distances must be ascending.
      for (size_t i = 1; i < result.size(); ++i) {
        EXPECT_LE(result[i - 1].dist2, result[i].dist2);
      }
      // And match the brute-force k smallest distances.
      std::vector<double> all;
      for (const auto& key : keys) {
        all.push_back(BruteDist2Int(center, key));
      }
      std::sort(all.begin(), all.end());
      for (size_t i = 0; i < result.size(); ++i) {
        EXPECT_DOUBLE_EQ(result[i].dist2, all[i]) << "dim=" << dim;
      }
    }
  }
}

TEST(Knn, MatchesBruteForceDoubleMetric) {
  const Dataset ds = GenerateCube(400, 3, 77);
  PhTreeD tree(3);
  for (size_t i = 0; i < ds.n(); ++i) {
    tree.Insert(ds.point(i), i);
  }
  Rng rng(78);
  for (int q = 0; q < 20; ++q) {
    const PhKeyD center{rng.NextDouble(), rng.NextDouble(), rng.NextDouble()};
    const auto result = KnnSearchD(tree.tree(), center, 5);
    ASSERT_EQ(result.size(), 5u);
    std::vector<double> all;
    for (size_t i = 0; i < ds.n(); ++i) {
      const auto pt = ds.point(i);
      double s = 0;
      for (int d = 0; d < 3; ++d) {
        s += (pt[d] - center[d]) * (pt[d] - center[d]);
      }
      all.push_back(s);
    }
    std::sort(all.begin(), all.end());
    for (size_t i = 0; i < result.size(); ++i) {
      EXPECT_NEAR(result[i].dist2, all[i], 1e-12);
    }
  }
}

TEST(Knn, NearestOfExactMatchIsItself) {
  PhTree tree(2);
  Rng rng(41);
  PhKey probe{123456, 654321};
  tree.Insert(probe, 99);
  for (int i = 0; i < 100; ++i) {
    tree.Insert(PhKey{rng.NextU64(), rng.NextU64()}, i);
  }
  const auto res = KnnSearch(tree, probe, 1);
  ASSERT_EQ(res.size(), 1u);
  EXPECT_EQ(res[0].key, probe);
  EXPECT_EQ(res[0].value, 99u);
  EXPECT_EQ(res[0].dist2, 0.0);
}

TEST(Knn, ClusteredDataBestFirstDoesNotMissNeighbours) {
  const Dataset ds = GenerateCluster(2000, 3, 0.5, 13);
  PhTreeD tree(3);
  for (size_t i = 0; i < ds.n(); ++i) {
    tree.InsertOrAssign(ds.point(i), i);
  }
  const PhKeyD center{0.5, 0.5, 0.5};
  const auto result = KnnSearchD(tree.tree(), center, 20);
  ASSERT_EQ(result.size(), 20u);
  // Brute force over stored (deduplicated) keys.
  std::vector<double> all;
  tree.tree().ForEach([&](const PhKey& k, uint64_t) {
    double s = 0;
    for (int d = 0; d < 3; ++d) {
      const double c = SortableBitsToDouble(k[d]);
      s += (c - center[d]) * (c - center[d]);
    }
    all.push_back(s);
  });
  std::sort(all.begin(), all.end());
  for (size_t i = 0; i < result.size(); ++i) {
    EXPECT_NEAR(result[i].dist2, all[i], 1e-12);
  }
}

// A kNN(10) query on a 2D or 3D tree makes 15 heap allocations, whatever
// the size of the tree: the ten result keys, the result vector and the
// search's four buffers (the node queue, the flat path keys, the n-best
// heap and its flat keys). Centres sit next to stored points, as in a
// served query.
TEST(Knn, AllocationsDoNotGrowWithTheTree) {
  constexpr size_t kNeighbours = 10;
  constexpr uint64_t kAllocsPerQuery = kNeighbours + 5;
  struct Shape {
    uint32_t dim;
    size_t size;
  };
  for (const Shape shape : {Shape{2, 1000}, Shape{2, 100000},
                            Shape{3, 100000}}) {
    const Dataset ds = GenerateCube(shape.size, shape.dim, 7);
    PhTreeD tree(shape.dim);
    for (size_t i = 0; i < ds.n(); ++i) {
      tree.Insert(ds.point(i), i);
    }
    Rng rng(8);
    PhKey center(shape.dim);
    for (int q = 0; q < 500; ++q) {
      const auto p = ds.point(rng.NextBounded(ds.n()));
      for (uint32_t d = 0; d < shape.dim; ++d) {
        center[d] = SortableDoubleBits(p[d] + rng.NextDouble(-1e-3, 1e-3));
      }
      const uint64_t before = testing_heap::HeapAllocs();
      const std::vector<KnnResult> res =
          KnnSearch(tree.tree(), center, kNeighbours, KnnMetric::kL2Double);
      const uint64_t allocs = testing_heap::HeapAllocs() - before;
      ASSERT_EQ(res.size(), kNeighbours);
      ASSERT_EQ(allocs, kAllocsPerQuery)
          << "dim=" << shape.dim << " size=" << shape.size << " query " << q;
    }
  }
}

}  // namespace
}  // namespace phtree
