// kNN edge cases, identical across PhTree, PhTreeSync and PhTreeSharded
// (both routing modes): k = 0, k larger than the tree, exact distance ties
// (which must be broken deterministically by the z-order of the keys — the
// whole result SEQUENCE is a pure function of the tree content), repeated
// queries while a tree is erased down to empty, integer grids whose rings
// repeat distances exactly (where the pruning rules decide ties), and
// infinite coordinates shared by keys and centres.
#include <gtest/gtest.h>

#include <functional>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "phtree/knn.h"
#include "phtree/phtree.h"
#include "phtree/phtree_d.h"
#include "phtree/phtree_sync.h"
#include "phtree/sharded.h"
#include "testlib/reference_model.h"

namespace phtree {
namespace {

using testlib::KnnResultLess;
using testlib::ReferenceModel;

struct KnnVariant {
  std::string name;
  std::function<bool(const PhKey&, uint64_t)> insert;
  std::function<bool(const PhKey&)> erase;
  std::function<std::vector<KnnResult>(const PhKey&, size_t)> knn;
};

/// All variants, freshly constructed, plus the oracle. The fixture owns the
/// trees; every mutation goes through all of them.
class KnnEdgeTest : public testing::Test {
 protected:
  KnnEdgeTest()
      : model_(2),
        tree_(2),
        sync_(2),
        sharded_z_(2, 8, ShardRouting::kZPrefix),
        sharded_h_(2, 8, ShardRouting::kHash) {
    variants_.push_back(
        {"PhTree",
         [this](const PhKey& k, uint64_t v) { return tree_.Insert(k, v); },
         [this](const PhKey& k) { return tree_.Erase(k); },
         [this](const PhKey& c, size_t n) {
           return KnnSearch(tree_, c, n, KnnMetric::kL2Double);
         }});
    variants_.push_back(
        {"PhTreeSync",
         [this](const PhKey& k, uint64_t v) { return sync_.Insert(k, v); },
         [this](const PhKey& k) { return sync_.Erase(k); },
         [this](const PhKey& c, size_t n) {
           return sync_.KnnSearch(c, n, KnnMetric::kL2Double);
         }});
    for (PhTreeSharded* sharded : {&sharded_z_, &sharded_h_}) {
      variants_.push_back(
          {sharded == &sharded_z_ ? "PhTreeSharded/z8" : "PhTreeSharded/h8",
           [sharded](const PhKey& k, uint64_t v) {
             return sharded->Insert(k, v);
           },
           [sharded](const PhKey& k) { return sharded->Erase(k); },
           [sharded](const PhKey& c, size_t n) {
             return sharded->KnnSearch(c, n, KnnMetric::kL2Double);
           }});
    }
  }

  void InsertEverywhere(const PhKeyD& point, uint64_t value) {
    const PhKey key = EncodeKeyD(point);
    ASSERT_TRUE(model_.Insert(key, value));
    for (const KnnVariant& v : variants_) {
      ASSERT_TRUE(v.insert(key, value)) << v.name;
    }
  }

  void EraseEverywhere(const PhKeyD& point) {
    const PhKey key = EncodeKeyD(point);
    ASSERT_TRUE(model_.Erase(key));
    for (const KnnVariant& v : variants_) {
      ASSERT_TRUE(v.erase(key)) << v.name;
    }
  }

  /// Asserts every variant reproduces the oracle's exact result sequence
  /// (keys, values AND bit-identical distances).
  void ExpectKnn(const PhKeyD& center, size_t n) {
    const PhKey c = EncodeKeyD(center);
    const std::vector<KnnResult> expect =
        model_.KnnSearch(c, n, KnnMetric::kL2Double);
    for (const KnnVariant& v : variants_) {
      const std::vector<KnnResult> got = v.knn(c, n);
      ASSERT_EQ(got.size(), expect.size()) << v.name << " n=" << n;
      for (size_t i = 0; i < expect.size(); ++i) {
        EXPECT_EQ(got[i].key, expect[i].key)
            << v.name << " n=" << n << " result " << i;
        EXPECT_EQ(got[i].value, expect[i].value)
            << v.name << " n=" << n << " result " << i;
        EXPECT_EQ(got[i].dist2, expect[i].dist2)
            << v.name << " n=" << n << " result " << i;
      }
    }
  }

  ReferenceModel model_;
  PhTree tree_;
  PhTreeSync sync_;
  PhTreeSharded sharded_z_;
  PhTreeSharded sharded_h_;
  std::vector<KnnVariant> variants_;
};

TEST_F(KnnEdgeTest, ZeroKIsEmptyOnEmptyAndNonEmptyTrees) {
  ExpectKnn({0.0, 0.0}, 0);
  InsertEverywhere({1.0, 1.0}, 1);
  InsertEverywhere({2.0, 2.0}, 2);
  ExpectKnn({0.0, 0.0}, 0);
  for (const KnnVariant& v : variants_) {
    EXPECT_TRUE(v.knn(EncodeKeyD(PhKeyD{1.0, 1.0}), 0).empty()) << v.name;
  }
}

TEST_F(KnnEdgeTest, KLargerThanSizeReturnsEverythingOrdered) {
  for (int i = 0; i < 7; ++i) {
    InsertEverywhere({static_cast<double>(i), static_cast<double>(-i)}, i);
  }
  ExpectKnn({0.5, 0.5}, 7);      // exactly size
  ExpectKnn({0.5, 0.5}, 8);      // size + 1
  ExpectKnn({0.5, 0.5}, 10000);  // far beyond
}

TEST_F(KnnEdgeTest, ExactTiesAreBrokenByZOrderDeterministically) {
  // 4 corner points at squared distance 2 from the origin plus 4 axis
  // points at distance 1 — every distance is exactly representable, so the
  // ties are exact and the (dist2, z-order) order determines the sequence.
  const std::vector<PhKeyD> ring = {
      {1.0, 1.0},  {1.0, -1.0}, {-1.0, 1.0}, {-1.0, -1.0},
      {1.0, 0.0},  {-1.0, 0.0}, {0.0, 1.0},  {0.0, -1.0},
  };
  for (size_t i = 0; i < ring.size(); ++i) {
    InsertEverywhere(ring[i], i);
  }
  for (size_t n = 0; n <= ring.size() + 1; ++n) {
    ExpectKnn({0.0, 0.0}, n);
  }
  // n = 6 cuts straight through the four-way dist2 == 2 tie group (the
  // axis points fill ranks 0-3, the corners 4-7): the cut must keep the
  // z-smallest keys of the group, exactly like the oracle.
  const std::vector<KnnResult> six =
      model_.KnnSearch(EncodeKeyD(PhKeyD{0.0, 0.0}), 6, KnnMetric::kL2Double);
  ASSERT_EQ(six.size(), 6u);
  EXPECT_EQ(six[4].dist2, 2.0);
  EXPECT_EQ(six[5].dist2, 2.0);  // the cut lands inside this tie group
  for (size_t i = 0; i + 1 < six.size(); ++i) {
    EXPECT_TRUE(KnnResultLess(six[i], six[i + 1]));  // strict total order
  }
}

TEST_F(KnnEdgeTest, RepeatedQueryWhileErasingToEmpty) {
  const std::vector<PhKeyD> points = {
      {0.0, 0.0}, {1.0, 2.0}, {-2.0, 1.0}, {3.0, -3.0}, {-1.0, -1.0}};
  for (size_t i = 0; i < points.size(); ++i) {
    InsertEverywhere(points[i], i);
  }
  for (size_t removed = 0; removed < points.size(); ++removed) {
    ExpectKnn({0.25, -0.25}, 3);
    EraseEverywhere(points[removed]);
  }
  // Empty again: every k yields the empty sequence, repeatably.
  for (int repeat = 0; repeat < 2; ++repeat) {
    ExpectKnn({0.25, -0.25}, 0);
    ExpectKnn({0.25, -0.25}, 1);
    ExpectKnn({0.25, -0.25}, 5);
  }
}

/// Builds one PhTree, the reference model and PhTreeSharded with S = 2 and
/// 8 under both routings over `keys` (values are key indices), then asserts
/// for every centre and n that the tree equals the model and every sharded
/// tree equals the tree, element for element: keys, values and
/// bit-identical distances.
void ExpectKnnAgrees(uint32_t dim, const std::vector<PhKey>& keys,
                     const std::vector<PhKey>& centers,
                     const std::vector<size_t>& ns, KnnMetric metric) {
  ReferenceModel model(dim);
  PhTree tree(dim);
  std::vector<std::unique_ptr<PhTreeSharded>> sharded;
  for (const ShardRouting routing :
       {ShardRouting::kZPrefix, ShardRouting::kHash}) {
    for (const uint32_t shards : {2u, 8u}) {
      sharded.push_back(
          std::make_unique<PhTreeSharded>(dim, shards, routing));
    }
  }
  for (size_t i = 0; i < keys.size(); ++i) {
    ASSERT_EQ(model.Insert(keys[i], i), tree.Insert(keys[i], i));
    for (const auto& s : sharded) {
      s->Insert(keys[i], i);
    }
  }
  for (const PhKey& center : centers) {
    for (const size_t n : ns) {
      const std::vector<KnnResult> want = model.KnnSearch(center, n, metric);
      const std::vector<KnnResult> got = KnnSearch(tree, center, n, metric);
      ASSERT_EQ(got.size(), want.size()) << "n=" << n;
      for (size_t i = 0; i < want.size(); ++i) {
        ASSERT_EQ(got[i].key, want[i].key) << "n=" << n << " rank " << i;
        ASSERT_EQ(got[i].value, want[i].value) << "n=" << n << " rank " << i;
        ASSERT_EQ(got[i].dist2, want[i].dist2) << "n=" << n << " rank " << i;
      }
      for (size_t s = 0; s < sharded.size(); ++s) {
        const std::vector<KnnResult> part =
            sharded[s]->KnnSearch(center, n, metric);
        ASSERT_EQ(part.size(), got.size()) << "sharded " << s << " n=" << n;
        for (size_t i = 0; i < got.size(); ++i) {
          ASSERT_EQ(part[i].key, got[i].key)
              << "sharded " << s << " n=" << n << " rank " << i;
          ASSERT_EQ(part[i].value, got[i].value);
          ASSERT_EQ(part[i].dist2, got[i].dist2);
        }
      }
    }
  }
}

/// Every point of the grid [-radius, radius]^dim, in x-major order.
std::vector<std::vector<int64_t>> GridOffsets(uint32_t dim, int64_t radius) {
  std::vector<std::vector<int64_t>> out{{}};
  for (uint32_t d = 0; d < dim; ++d) {
    std::vector<std::vector<int64_t>> next;
    for (const auto& prefix : out) {
      for (int64_t v = -radius; v <= radius; ++v) {
        next.push_back(prefix);
        next.back().push_back(v);
      }
    }
    out = std::move(next);
  }
  return out;
}

// Integer grids with the centre on a grid point: ring distances repeat
// exactly, and each n below cuts through one of the first rings, so the
// n-th best distance is shared by points on both sides of the cut. A node
// whose bound equals that distance may hold a tied point that sorts
// before the current n-th best, so the search must expand it, replace
// the n-th best on a tie only by a z-smaller key, and stop only at a
// bound beyond it. The grids straddle the z-prefix shard boundaries:
// kL2Integer grids sit around 2^63 on every axis, and kL2Double grids
// hold integer-valued doubles around 0.0, which encodes to 2^63.
TEST(KnnTies, GridRingsMatchReferenceAndShardedTrees) {
  constexpr uint64_t kMid = uint64_t{1} << 63;
  for (const uint32_t dim : {2u, 3u}) {
    const int64_t radius = dim == 2 ? 4 : 3;
    const std::vector<std::vector<int64_t>> grid = GridOffsets(dim, radius);
    for (const KnnMetric metric :
         {KnnMetric::kL2Integer, KnnMetric::kL2Double}) {
      const auto encode = [&](const std::vector<int64_t>& offset) {
        PhKey key(dim);
        for (uint32_t d = 0; d < dim; ++d) {
          key[d] = metric == KnnMetric::kL2Integer
                       ? kMid + static_cast<uint64_t>(offset[d])
                       : SortableDoubleBits(static_cast<double>(offset[d]));
        }
        return key;
      };
      std::vector<PhKey> keys;
      for (const auto& offset : grid) {
        keys.push_back(encode(offset));
      }
      std::vector<PhKey> centers;
      for (const std::vector<int64_t>& offset :
           {std::vector<int64_t>{0, 0, 0}, {1, 0, -1}, {-1, 2, 1},
            {radius, radius, radius}, {-radius, 1, radius}}) {
        centers.push_back(
            encode(std::vector<int64_t>(offset.begin(), offset.begin() + dim)));
      }
      SCOPED_TRACE("dim=" + std::to_string(dim) + " metric=" +
                   std::to_string(static_cast<int>(metric)));
      ExpectKnnAgrees(dim, keys, centers,
                      {1, 3, 4, 5, 8, 9, 12, 13, keys.size(), keys.size() + 1},
                      metric);
    }
  }
}

// Keys and centres with infinite coordinates, under both metrics: a key
// and a centre that share an infinity are 0 apart on that axis, not
// inf - inf = NaN, so every distance orders and the tree, the sharded
// trees and the brute-force model agree.
TEST(KnnInfinities, SharedInfiniteCoordinatesAreZeroApart) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  Rng rng(2026);
  for (const uint32_t dim : {2u, 3u}) {
    for (int trial = 0; trial < 40; ++trial) {
      SCOPED_TRACE("dim=" + std::to_string(dim) +
                   " trial=" + std::to_string(trial));
      const auto coordinate = [&](uint32_t d) {
        // Axis 0 is infinite for 30% of keys, the others for 10%; finite
        // coordinates sit on a coarse grid so that distances tie.
        if (rng.NextBool(d == 0 ? 0.3 : 0.1)) {
          return rng.NextBool(0.5) ? kInf : -kInf;
        }
        return static_cast<double>(rng.NextBounded(9)) - 4.0;
      };
      std::vector<PhKey> keys(5 + rng.NextBounded(60), PhKey(dim));
      for (PhKey& key : keys) {
        for (uint32_t d = 0; d < dim; ++d) {
          key[d] = SortableDoubleBits(coordinate(d));
        }
      }
      std::vector<PhKey> centers(3, PhKey(dim));
      for (PhKey& center : centers) {
        for (uint32_t d = 0; d < dim; ++d) {
          center[d] = SortableDoubleBits(coordinate(d));
        }
      }
      centers[0][0] = SortableDoubleBits(kInf);
      centers[1][0] = SortableDoubleBits(-kInf);
      for (const KnnMetric metric :
           {KnnMetric::kL2Double, KnnMetric::kL2Integer}) {
        ExpectKnnAgrees(dim, keys, centers, {1, 4, 9, keys.size()}, metric);
      }
    }
  }
}

}  // namespace
}  // namespace phtree
