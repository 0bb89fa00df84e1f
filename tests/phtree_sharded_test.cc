// Functional tests for the lock-striped sharded PH-tree: shard routing,
// region clipping, equivalence with a single PhTree on every query type,
// bulk load, persistence, and per-shard structural invariants.
#include "phtree/sharded.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "common/bits.h"
#include "common/rng.h"
#include "heap_count.h"
#include "phtree/phtree_sync.h"
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

std::string TempPath(const char* name) {
  return testing::TempDir() + "/" + name;
}

TEST(PhTreeSharded, ShardRoutingMatchesShardRegions) {
  for (const uint32_t dim : {1u, 2u, 3u, 5u}) {
    for (const uint32_t shards : {1u, 2u, 4u, 8u, 16u}) {
      PhTreeSharded tree(dim, shards);
      PhKey lo;
      PhKey hi;
      for (uint32_t s = 0; s < shards; ++s) {
        tree.ShardRegion(s, &lo, &hi);
        // The region's corners route back to the shard, so the region is
        // exactly the preimage of s (the routing is a prefix of z-order).
        EXPECT_EQ(tree.ShardOf(lo), s);
        EXPECT_EQ(tree.ShardOf(hi), s);
      }
      const auto keys = RandomKeys(200, dim, 7 + dim + shards);
      for (const auto& key : keys) {
        const uint32_t s = tree.ShardOf(key);
        ASSERT_LT(s, shards);
        tree.ShardRegion(s, &lo, &hi);
        for (uint32_t d = 0; d < dim; ++d) {
          EXPECT_GE(key[d], lo[d]);
          EXPECT_LE(key[d], hi[d]);
        }
      }
    }
  }
}

TEST(PhTreeSharded, ShardRegionsAreOrderedAndDisjoint) {
  PhTreeSharded tree(2, 8);
  PhKey prev_hi;
  for (uint32_t s = 0; s < 8; ++s) {
    PhKey lo;
    PhKey hi;
    tree.ShardRegion(s, &lo, &hi);
    for (uint32_t d = 0; d < 2; ++d) {
      EXPECT_LE(lo[d], hi[d]);
    }
    if (s > 0) {
      // Regions of consecutive shards are distinct boxes (routing is a
      // partition; full disjointness is implied by the preimage property
      // checked above).
      EXPECT_NE(lo, prev_hi);
    }
    prev_hi = hi;
  }
}

TEST(PhTreeSharded, BasicOperations) {
  PhTreeSharded tree(2, 4);
  EXPECT_EQ(tree.dim(), 2u);
  EXPECT_EQ(tree.num_shards(), 4u);
  EXPECT_TRUE(tree.empty());
  EXPECT_TRUE(tree.Insert(PhKey{1, 2}, 3));
  EXPECT_FALSE(tree.Insert(PhKey{1, 2}, 4));  // duplicate
  EXPECT_EQ(tree.Find(PhKey{1, 2}), std::optional<uint64_t>(3));
  EXPECT_FALSE(tree.InsertOrAssign(PhKey{1, 2}, 9));  // assigned, not new
  EXPECT_EQ(tree.Find(PhKey{1, 2}), std::optional<uint64_t>(9));
  EXPECT_FALSE(tree.Contains(PhKey{2, 1}));
  EXPECT_EQ(tree.size(), 1u);
  EXPECT_TRUE(tree.Erase(PhKey{1, 2}));
  EXPECT_FALSE(tree.Erase(PhKey{1, 2}));
  EXPECT_TRUE(tree.empty());
}

TEST(PhTreeSharded, MatchesPlainTreeOnEveryQueryType) {
  const uint32_t dim = 3;
  const auto keys = RandomKeys(4000, dim, 11);
  PhTree plain(dim);
  PhTreeSharded sharded(dim, 8);
  for (size_t i = 0; i < keys.size(); ++i) {
    EXPECT_EQ(plain.Insert(keys[i], i), sharded.Insert(keys[i], i));
  }
  EXPECT_EQ(plain.size(), sharded.size());

  for (const auto& key : keys) {
    EXPECT_EQ(plain.Find(key), sharded.Find(key));
  }

  // Window queries: identical result *sequences* — the sharded fan-out
  // must preserve global z-order when concatenating per-shard results.
  Rng rng(12);
  for (int q = 0; q < 40; ++q) {
    PhKey lo(dim);
    PhKey hi(dim);
    for (uint32_t d = 0; d < dim; ++d) {
      uint64_t a = rng.NextU64();
      uint64_t b = rng.NextU64();
      lo[d] = std::min(a, b);
      hi[d] = std::max(a, b);
    }
    const auto expect = plain.QueryWindow(lo, hi);
    const auto got = sharded.QueryWindow(lo, hi);
    EXPECT_EQ(expect, got) << "window query " << q;
    EXPECT_EQ(plain.CountWindow(lo, hi), sharded.CountWindow(lo, hi));

    // Visitor form agrees with the vector form.
    std::vector<std::pair<PhKey, uint64_t>> visited;
    sharded.QueryWindow(lo, hi, [&](const PhKey& k, uint64_t v) {
      visited.emplace_back(k, v);
    });
    EXPECT_EQ(expect, visited);
  }

  // ForEach: same global z-order enumeration.
  std::vector<std::pair<PhKey, uint64_t>> plain_all;
  std::vector<std::pair<PhKey, uint64_t>> sharded_all;
  plain.ForEach([&](const PhKey& k, uint64_t v) { plain_all.emplace_back(k, v); });
  sharded.ForEach(
      [&](const PhKey& k, uint64_t v) { sharded_all.emplace_back(k, v); });
  EXPECT_EQ(plain_all, sharded_all);

  // kNN: the same results in the same order (ties in z-order).
  for (int q = 0; q < 20; ++q) {
    PhKey center(dim);
    for (auto& c : center) {
      c = rng.NextU64();
    }
    for (const size_t n : {1u, 5u, 32u}) {
      const auto expect = KnnSearch(plain, center, n);
      const auto got = sharded.KnnSearch(center, n);
      ASSERT_EQ(expect.size(), got.size());
      for (size_t i = 0; i < expect.size(); ++i) {
        EXPECT_EQ(expect[i].key, got[i].key)
            << "query " << q << " n " << n << " rank " << i;
        EXPECT_EQ(expect[i].dist2, got[i].dist2);
      }
    }
  }

  // Aggregated stats count every entry exactly once.
  const PhTreeStats stats = sharded.ComputeStats();
  EXPECT_EQ(stats.n_entries, plain.size());
  EXPECT_EQ(stats.n_postfix_entries, plain.size());

  // Erase half and re-check equivalence plus per-shard invariants.
  for (size_t i = 0; i < keys.size(); i += 2) {
    EXPECT_EQ(plain.Erase(keys[i]), sharded.Erase(keys[i]));
  }
  EXPECT_EQ(plain.size(), sharded.size());
  for (const auto& key : keys) {
    EXPECT_EQ(plain.Find(key), sharded.Find(key));
  }
  for (uint32_t s = 0; s < sharded.num_shards(); ++s) {
    EXPECT_EQ(ValidatePhTree(sharded.UnsafeShard(s)), "");
  }
}

TEST(PhTreeSharded, ZOrderLessMatchesTreeEnumerationOrder) {
  const uint32_t dim = 3;
  const auto keys = RandomKeys(500, dim, 21);
  PhTree plain(dim);
  for (size_t i = 0; i < keys.size(); ++i) {
    plain.Insert(keys[i], i);
  }
  std::vector<PhKey> enumerated;
  plain.ForEach([&](const PhKey& k, uint64_t) { enumerated.push_back(k); });
  // Sorting by ZOrderLess reproduces the tree's own enumeration order.
  std::vector<PhKey> sorted = keys;
  std::sort(sorted.begin(), sorted.end(),
            [](const PhKey& a, const PhKey& b) { return ZOrderLess(a, b); });
  sorted.erase(std::unique(sorted.begin(), sorted.end()), sorted.end());
  EXPECT_EQ(enumerated, sorted);
  // Strict weak ordering basics.
  EXPECT_FALSE(ZOrderLess(keys[0], keys[0]));
  EXPECT_NE(ZOrderLess(keys[0], keys[1]), ZOrderLess(keys[1], keys[0]));
}

TEST(PhTreeSharded, HashRoutingMatchesPlainTreeAndBalancesSkewedKeys) {
  const uint32_t dim = 3;
  // Keys confined to a narrow band: the top 16 bits of every word are
  // identical, mimicking SortableDoubleBits-encoded uniform doubles (shared
  // sign + exponent). Z-prefix routing sends ALL of them to one shard;
  // hash routing must spread them evenly.
  Rng rng(31);
  auto band_word = [&rng]() {
    return 0x3ff0000000000000ULL | (rng.NextU64() >> 16);
  };
  std::vector<PhKey> keys;
  keys.reserve(4000);
  for (size_t i = 0; i < 4000; ++i) {
    PhKey key(dim);
    for (auto& v : key) {
      v = band_word();
    }
    keys.push_back(std::move(key));
  }
  PhTree plain(dim);
  PhTreeSharded zp(dim, 8);  // control: demonstrates the skew
  PhTreeSharded hashed(dim, 8, ShardRouting::kHash);
  EXPECT_EQ(zp.routing(), ShardRouting::kZPrefix);
  EXPECT_EQ(hashed.routing(), ShardRouting::kHash);
  for (size_t i = 0; i < keys.size(); ++i) {
    plain.Insert(keys[i], i);
    zp.Insert(keys[i], i);
    hashed.Insert(keys[i], i);
  }
  uint32_t zp_nonempty = 0;
  for (uint32_t s = 0; s < 8; ++s) {
    zp_nonempty += zp.UnsafeShard(s).size() > 0 ? 1 : 0;
  }
  EXPECT_EQ(zp_nonempty, 1u);  // the skew hash routing exists to fix
  for (uint32_t s = 0; s < 8; ++s) {
    // Every hash shard within [mean/2, 2*mean].
    EXPECT_GT(hashed.UnsafeShard(s).size(), plain.size() / 16);
    EXPECT_LT(hashed.UnsafeShard(s).size(), plain.size() / 4);
  }

  for (const auto& key : keys) {
    EXPECT_EQ(plain.Find(key), hashed.Find(key));
  }

  // Vector window queries restore global z-order by sorting the fan-out.
  for (int q = 0; q < 20; ++q) {
    PhKey lo(dim);
    PhKey hi(dim);
    for (uint32_t d = 0; d < dim; ++d) {
      const uint64_t a = band_word();
      const uint64_t b = band_word();
      lo[d] = std::min(a, b);
      hi[d] = std::max(a, b);
    }
    const auto expect = plain.QueryWindow(lo, hi);
    EXPECT_EQ(expect, hashed.QueryWindow(lo, hi)) << "window query " << q;
    EXPECT_EQ(plain.CountWindow(lo, hi), hashed.CountWindow(lo, hi));
    // The visitor form is only per-shard z-ordered under kHash: compare
    // after re-establishing the global order.
    std::vector<std::pair<PhKey, uint64_t>> visited;
    hashed.QueryWindow(lo, hi, [&](const PhKey& k, uint64_t v) {
      visited.emplace_back(k, v);
    });
    std::sort(visited.begin(), visited.end(), [](const auto& a, const auto& b) {
      return ZOrderLess(a.first, b.first);
    });
    EXPECT_EQ(expect, visited);
  }

  // kNN has no spatial bound on hash shards (every root is seeded at 0)
  // and still returns the single tree's results in its order.
  for (int q = 0; q < 10; ++q) {
    PhKey center(dim);
    for (auto& c : center) {
      c = band_word();
    }
    const auto expect = KnnSearch(plain, center, 10);
    const auto got = hashed.KnnSearch(center, 10);
    ASSERT_EQ(expect.size(), got.size());
    for (size_t i = 0; i < expect.size(); ++i) {
      EXPECT_EQ(expect[i].key, got[i].key) << "query " << q << " rank " << i;
      EXPECT_EQ(expect[i].dist2, got[i].dist2);
    }
  }

  // Snapshots are canonical regardless of routing: a hash-routed tree
  // round-trips through Save/Load (which re-partitions with ITS routing).
  const std::string path = TempPath("sharded_hash.phtree");
  ASSERT_TRUE(hashed.Save(path).ok());
  PhTreeSharded reload(dim, 4, ShardRouting::kHash);
  ASSERT_TRUE(reload.Load(path).ok());
  EXPECT_EQ(reload.size(), plain.size());
  std::vector<std::pair<PhKey, uint64_t>> plain_all;
  std::vector<std::pair<PhKey, uint64_t>> reload_all;
  plain.ForEach(
      [&](const PhKey& k, uint64_t v) { plain_all.emplace_back(k, v); });
  reload.ForEach(
      [&](const PhKey& k, uint64_t v) { reload_all.emplace_back(k, v); });
  std::sort(reload_all.begin(), reload_all.end(),
            [](const auto& a, const auto& b) {
              return ZOrderLess(a.first, b.first);
            });
  EXPECT_EQ(plain_all, reload_all);
  for (uint32_t s = 0; s < reload.num_shards(); ++s) {
    EXPECT_EQ(ValidatePhTree(reload.UnsafeShard(s)), "");
  }
  std::remove(path.c_str());
}

// Rings of exactly equidistant points around `center`: at distance r
// along both axes and diagonals, and the twelve points of the 3-4-5
// triangle at distance 5 in every direction.
std::vector<PhKey> EquidistantRings(const PhKey& center) {
  std::vector<PhKey> keys{center};
  const auto add = [&](int64_t dx, int64_t dy) {
    keys.push_back(PhKey{center[0] + static_cast<uint64_t>(dx),
                         center[1] + static_cast<uint64_t>(dy)});
  };
  for (const int64_t r : {1, 2, 7, 1000}) {
    for (const int64_t sx : {-1, 0, 1}) {
      for (const int64_t sy : {-1, 0, 1}) {
        if (sx != 0 || sy != 0) {
          add(sx * r, sy * r);
        }
      }
    }
  }
  for (const int64_t sx : {-1, 1}) {
    for (const int64_t sy : {-1, 1}) {
      add(sx * 3, sy * 4);
      add(sx * 4, sy * 3);
    }
    add(sx * 5, 0);
    add(0, sx * 5);
  }
  return keys;
}

// kNN centres on shard boundaries with exact distance ties on both sides:
// the sharded search must equal the single-tree search element for
// element (same keys, payloads and distances, ties in z-order), for both
// routings, every shard count and both metrics.
TEST(PhTreeSharded, KnnTiesAcrossShardBoundariesMatchOneTree) {
  // z-prefix shards split x at 2^63 (S = 2 and 8), y at 2^63 and x at
  // 2^62 and 3 * 2^62 (S = 8). The encoded doubles 0.0 and 2.0 are 2^63
  // and 3 * 2^62, so under kL2Double the centres below are the points
  // (0, 0), (2, 0) and (0, -2 + 2^-51) — every key here decodes to a
  // finite double.
  constexpr uint64_t kMid = uint64_t{1} << 63;
  constexpr uint64_t kQuarter = uint64_t{1} << 62;
  const std::vector<PhKey> centers{PhKey{kMid, kMid},
                                   PhKey{kMid + kQuarter, kMid},
                                   PhKey{kMid, kQuarter}};
  std::vector<PhKey> keys;
  for (const PhKey& c : centers) {
    const std::vector<PhKey> ring = EquidistantRings(c);
    keys.insert(keys.end(), ring.begin(), ring.end());
  }
  Rng rng(4242);
  for (int i = 0; i < 300; ++i) {
    keys.push_back(PhKey{SortableDoubleBits(rng.NextDouble(-1e6, 1e6)),
                         SortableDoubleBits(rng.NextDouble(-1e6, 1e6))});
  }
  // Under kL2Double these decode to (+inf, 0) and (-inf, +inf): every
  // distance is infinite, so only the z-order tie-break orders results.
  std::vector<PhKey> probes = centers;
  probes.push_back(
      PhKey{SortableDoubleBits(std::numeric_limits<double>::infinity()),
            kMid});
  probes.push_back(
      PhKey{SortableDoubleBits(-std::numeric_limits<double>::infinity()),
            SortableDoubleBits(std::numeric_limits<double>::infinity())});
  PhTree plain(2);
  for (size_t i = 0; i < keys.size(); ++i) {
    plain.Insert(keys[i], i);
  }
  for (const ShardRouting routing :
       {ShardRouting::kZPrefix, ShardRouting::kHash}) {
    for (const uint32_t S : {1u, 2u, 8u}) {
      PhTreeSharded sharded(2, S, routing);
      for (size_t i = 0; i < keys.size(); ++i) {
        sharded.Insert(keys[i], i);
      }
      for (const KnnMetric metric :
           {KnnMetric::kL2Integer, KnnMetric::kL2Double}) {
        for (const PhKey& center : probes) {
          for (const size_t n : {size_t{1}, size_t{4}, size_t{9}, size_t{20},
                                 size_t{45}, keys.size() + 3}) {
            const auto want = KnnSearch(plain, center, n, metric);
            const auto got = sharded.KnnSearch(center, n, metric);
            ASSERT_EQ(got.size(), want.size());
            for (size_t i = 0; i < want.size(); ++i) {
              ASSERT_EQ(got[i].key, want[i].key)
                  << "S=" << S << " hash=" << (routing == ShardRouting::kHash)
                  << " n=" << n << " rank " << i;
              ASSERT_EQ(got[i].value, want[i].value);
              ASSERT_EQ(got[i].dist2, want[i].dist2);
            }
          }
        }
      }
    }
  }
}

TEST(PhTreeSharded, KnnExceedingTreeSizeReturnsEverything) {
  PhTreeSharded tree(2, 8);
  const auto keys = RandomKeys(50, 2, 99);
  for (size_t i = 0; i < keys.size(); ++i) {
    tree.Insert(keys[i], i);
  }
  const auto all = tree.KnnSearch(PhKey{0, 0}, 1000);
  EXPECT_EQ(all.size(), tree.size());
  EXPECT_TRUE(std::is_sorted(
      all.begin(), all.end(),
      [](const KnnResult& a, const KnnResult& b) { return a.dist2 < b.dist2; }));
}

TEST(PhTreeSharded, BulkLoadMatchesSequentialInsert) {
  const uint32_t dim = 2;
  const auto keys = RandomKeys(5000, dim, 21);
  std::vector<PhEntry> entries;
  entries.reserve(keys.size() + 100);
  for (size_t i = 0; i < keys.size(); ++i) {
    entries.push_back(PhEntry{keys[i], i});
  }
  // Duplicates: first occurrence wins, later ones dropped (Insert
  // semantics) — also across the bulk-load partition.
  for (size_t i = 0; i < 100; ++i) {
    entries.push_back(PhEntry{keys[i], 999999 + i});
  }

  PhTreeSharded bulk(dim, 8);
  const size_t inserted = bulk.BulkLoad(entries);
  EXPECT_EQ(inserted, keys.size());
  EXPECT_EQ(bulk.size(), keys.size());

  PhTreeSharded seq(dim, 8);
  for (size_t i = 0; i < keys.size(); ++i) {
    seq.Insert(keys[i], i);
  }
  for (const auto& key : keys) {
    EXPECT_EQ(bulk.Find(key), seq.Find(key));
  }
  // Structure is a pure function of the entries, so the shards are
  // byte-identical in stats regardless of how they were built.
  const PhTreeStats a = bulk.ComputeStats();
  const PhTreeStats b = seq.ComputeStats();
  EXPECT_EQ(a.n_nodes, b.n_nodes);
  EXPECT_EQ(a.memory_bytes, b.memory_bytes);
  for (uint32_t s = 0; s < bulk.num_shards(); ++s) {
    EXPECT_EQ(ValidatePhTree(bulk.UnsafeShard(s)), "");
  }
}

TEST(PhTreeSharded, ClearEmptiesEveryShard) {
  PhTreeSharded tree(2, 4);
  const auto keys = RandomKeys(500, 2, 31);
  for (size_t i = 0; i < keys.size(); ++i) {
    tree.Insert(keys[i], i);
  }
  EXPECT_GT(tree.size(), 0u);
  tree.Clear();
  EXPECT_EQ(tree.size(), 0u);
  for (const auto& key : keys) {
    EXPECT_FALSE(tree.Contains(key));
  }
  // Still usable after Clear.
  EXPECT_TRUE(tree.Insert(keys[0], 1));
}

TEST(PhTreeSharded, SingleShardDegeneratesToPlainTree) {
  const auto keys = RandomKeys(1000, 2, 41);
  PhTree plain(2);
  PhTreeSync sync(2);
  for (size_t i = 0; i < keys.size(); ++i) {
    plain.Insert(keys[i], i);
    sync.Insert(keys[i], i);
  }
  // Copy-on-write churn, so the retire/reclaim meters are non-zero too.
  for (size_t i = 0; i < keys.size(); i += 3) {
    plain.Erase(keys[i]);
    sync.Erase(keys[i]);
  }
  const PhTreeStats a = plain.ComputeStats();
  const PhTreeStats b = sync.ComputeStats();
  EXPECT_EQ(a.n_nodes, b.n_nodes);
  EXPECT_EQ(a.memory_bytes, b.memory_bytes);
  EXPECT_EQ(a.max_depth, b.max_depth);
  // The aggregate over one shard is that shard's stats, every field of it.
  const PhTreeStats shard = sync.UnsafeShard(0).ComputeStats();
  EXPECT_GT(shard.arena_reclaimed_nodes + shard.arena_retired_nodes, 0u);
  EXPECT_GT(shard.epoch, 0u);
  EXPECT_TRUE(b == shard);
}

// FindBatch sorts the batch once by (shard, z-sample) and runs one resumed
// descent per shard run over index spans, answering in place: the results
// equal per-key point cursors under both routings and every shard count,
// and the heap allocations of a batch (the result and the sort vector) do
// not grow with the shard count.
TEST(PhTreeSharded, FindBatchMatchesCursorsAndAllocatesIndependentOfS) {
  const uint32_t dim = 2;
  Rng rng(2024);
  // Small coordinates give shared prefixes (resumption at every depth);
  // the top bit spreads keys over the z-prefix shards.
  const auto random_key = [&rng] {
    return PhKey{rng.NextU64() & 0x80000000000003FFull,
                 rng.NextU64() & 0x80000000000003FFull};
  };
  std::vector<PhKey> stored;
  for (int i = 0; i < 3000; ++i) {
    stored.push_back(random_key());
  }
  std::vector<PhKey> batch;  // hits, mostly misses, and duplicates
  for (int i = 0; i < 64; ++i) {
    if (i % 4 == 3) {
      batch.push_back(batch.back());
    } else if (i % 2 == 0) {
      batch.push_back(stored[rng.NextBounded(stored.size())]);
    } else {
      batch.push_back(random_key());
    }
  }
  uint64_t allocs_at_one_shard = 0;
  for (const ShardRouting routing :
       {ShardRouting::kZPrefix, ShardRouting::kHash}) {
    for (const uint32_t shards : {1u, 2u, 8u}) {
      SCOPED_TRACE(std::string(routing == ShardRouting::kHash ? "hash"
                                                              : "z-prefix") +
                   " S=" + std::to_string(shards));
      PhTreeSharded tree(dim, shards, routing);
      for (size_t i = 0; i < stored.size(); ++i) {
        tree.Insert(stored[i], i);
      }
      (void)tree.FindBatch(batch);  // warm-up: epoch slot, thread state
      const uint64_t before = testing_heap::HeapAllocs();
      const std::vector<std::optional<uint64_t>> got = tree.FindBatch(batch);
      const uint64_t allocs = testing_heap::HeapAllocs() - before;
      if (shards == 1 && routing == ShardRouting::kZPrefix) {
        allocs_at_one_shard = allocs;
        EXPECT_LE(allocs, 2u);
      }
      EXPECT_EQ(allocs, allocs_at_one_shard);
      ASSERT_EQ(got.size(), batch.size());
      for (size_t i = 0; i < batch.size(); ++i) {
        const TreeCursor cursor(tree.UnsafeShard(tree.ShardOf(batch[i])),
                                batch[i], batch[i]);
        const std::optional<uint64_t> want =
            cursor.Valid() ? std::optional(cursor.value()) : std::nullopt;
        ASSERT_EQ(got[i], want) << "i=" << i;
      }
    }
  }
}

TEST(PhTreeSharded, SaveLoadRoundTripAcrossShardCounts) {
  const uint32_t dim = 2;
  const auto keys = RandomKeys(2000, dim, 51);
  PhTree rebuilt(dim);
  for (size_t i = 0; i < keys.size(); ++i) {
    rebuilt.Insert(keys[i], i);
  }
  const std::string path = TempPath("sharded_snapshot.pht");
  for (const uint32_t shards : {1u, 8u}) {
    PhTreeSharded original(dim, shards);
    for (size_t i = 0; i < keys.size(); ++i) {
      original.Insert(keys[i], i);
    }
    ASSERT_TRUE(original.Save(path).ok());

    // The sharded snapshot is a plain v2 stream, byte-identical to the one
    // of a single tree built from the same entries.
    std::ifstream in(path, std::ios::binary);
    const std::vector<uint8_t> file((std::istreambuf_iterator<char>(in)),
                                    std::istreambuf_iterator<char>());
    EXPECT_EQ(file, SerializePhTree(rebuilt)) << shards << " shards";

    // Reload into other shard counts: content must be identical.
    for (const uint32_t into : {1u, 2u}) {
      PhTreeSharded reloaded(dim, into);
      ASSERT_TRUE(reloaded.Load(path).ok());
      EXPECT_EQ(reloaded.size(), original.size());
      for (size_t i = 0; i < keys.size(); ++i) {
        EXPECT_EQ(reloaded.Find(keys[i]), std::optional<uint64_t>(i));
      }
      for (uint32_t s = 0; s < reloaded.num_shards(); ++s) {
        EXPECT_EQ(ValidatePhTree(reloaded.UnsafeShard(s)), "");
      }
    }
  }

  // And the other direction: a plain SavePhTreeOr snapshot loads sharded,
  // and the stream's config (here set mode) replaces the tree's.
  PhTreeConfig set_config;
  set_config.store_values = false;
  PhTree set_tree(dim, set_config);
  for (const PhKey& key : keys) {
    set_tree.Insert(key, 0);
  }
  const std::string plain_path = TempPath("plain_snapshot.pht");
  ASSERT_TRUE(SavePhTreeOr(set_tree, plain_path).ok());
  for (const uint32_t into : {1u, 16u}) {
    PhTreeSharded from_plain(dim, into);
    ASSERT_TRUE(from_plain.Load(plain_path).ok());
    EXPECT_EQ(from_plain.size(), set_tree.size());
    EXPECT_FALSE(from_plain.config().store_values);
    EXPECT_FALSE(from_plain.UnsafeShard(0).config().store_values);
  }

  std::remove(path.c_str());
  std::remove(plain_path.c_str());
}

TEST(PhTreeSharded, SaveStreamsCanonicalBytesForEveryLayout) {
  // Save streams the shards in z-order (concatenated z-prefix runs, or an
  // S-way merge of hash shards) straight into the snapshot writer: every
  // layout must write the bytes of one insert-built tree with the same
  // entries, and every snapshot must load into every layout.
  const uint32_t dim = 3;
  Rng rng(61);
  std::vector<PhKey> keys;
  for (int i = 0; i < 3000; ++i) {
    // Full-range and narrow keys: z-prefix shards get uneven runs.
    const uint64_t mask = i % 3 == 0 ? 0xFFFF : ~0ull;
    keys.push_back(PhKey{rng.NextU64() & mask, rng.NextU64() & mask,
                         rng.NextU64() & mask});
  }
  PhTree single(dim);
  for (size_t i = 0; i < keys.size(); ++i) {
    single.Insert(keys[i], i);
  }
  const std::vector<uint8_t> canonical = SerializePhTree(single);
  struct Layout {
    uint32_t shards;
    ShardRouting routing;
  };
  std::vector<Layout> layouts;
  for (const uint32_t shards : {1u, 2u, 8u}) {
    for (const ShardRouting routing :
         {ShardRouting::kZPrefix, ShardRouting::kHash}) {
      layouts.push_back({shards, routing});
    }
  }
  const std::string path = TempPath("layout_snapshot.pht");
  LoadOptions paranoid;
  paranoid.validate_structure = true;
  for (const Layout& from : layouts) {
    const std::string label =
        std::to_string(from.shards) +
        (from.routing == ShardRouting::kHash ? " hash" : " z-prefix");
    PhTreeSharded saver(dim, from.shards, from.routing);
    for (size_t i = 0; i < keys.size(); ++i) {
      saver.Insert(keys[i], i);
    }
    ASSERT_TRUE(saver.Save(path).ok()) << label;
    std::ifstream in(path, std::ios::binary);
    const std::vector<uint8_t> file((std::istreambuf_iterator<char>(in)),
                                    std::istreambuf_iterator<char>());
    ASSERT_EQ(file, canonical) << label;
    for (const Layout& into : layouts) {
      PhTreeSharded loaded(dim, into.shards, into.routing);
      ASSERT_TRUE(loaded.Load(path, paranoid).ok()) << label;
      ASSERT_EQ(loaded.size(), single.size()) << label;
      for (size_t i = 0; i < keys.size(); ++i) {
        ASSERT_EQ(loaded.Find(keys[i]), std::optional<uint64_t>(i)) << label;
      }
      for (uint32_t s = 0; s < loaded.num_shards(); ++s) {
        ASSERT_EQ(ValidatePhTreeDeep(loaded.UnsafeShard(s)), "") << label;
        for (TreeCursor c(loaded.UnsafeShard(s)); c.Valid(); c.Next()) {
          ASSERT_EQ(loaded.ShardOf(c.key()), s) << label;
        }
      }
    }
  }
  std::remove(path.c_str());
}

TEST(PhTreeSharded, LoadRejectsDimensionMismatch) {
  PhTree tree3(3);
  tree3.Insert(PhKey{1, 2, 3}, 4);
  const std::string path = TempPath("dim3_snapshot.pht");
  ASSERT_TRUE(SavePhTreeOr(tree3, path).ok());
  PhTreeSharded tree2(2, 4);
  tree2.Insert(PhKey{7, 7}, 1);
  const Status st = tree2.Load(path);
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
  // Failed load leaves the tree untouched.
  EXPECT_EQ(tree2.size(), 1u);
  EXPECT_TRUE(tree2.Contains(PhKey{7, 7}));
  std::remove(path.c_str());
}

TEST(PhTreeSharded, LoadReportsIoErrorForMissingFile) {
  PhTreeSharded tree(2, 4);
  const Status st = tree.Load(TempPath("does_not_exist.pht"));
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kIoError);
}

TEST(PhTreeSync, SaveLoadRoundTrip) {
  PhTreeSync tree(2);
  const auto keys = RandomKeys(1000, 2, 61);
  for (size_t i = 0; i < keys.size(); ++i) {
    tree.Insert(keys[i], i);
  }
  const std::string path = TempPath("sync_snapshot.pht");
  ASSERT_TRUE(tree.Save(path).ok());

  PhTreeSync reloaded(2);
  ASSERT_TRUE(reloaded.Load(path).ok());
  EXPECT_EQ(reloaded.size(), tree.size());
  for (size_t i = 0; i < keys.size(); ++i) {
    EXPECT_EQ(reloaded.Find(keys[i]), std::optional<uint64_t>(i));
  }

  PhTreeSync wrong_dim(3);
  const Status st = wrong_dim.Load(path);
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
  std::remove(path.c_str());
}

TEST(PhTreeSync, VisitorWindowQueryMatchesVector) {
  PhTreeSync tree(2);
  for (uint64_t i = 0; i < 100; ++i) {
    tree.Insert(PhKey{i, i * 2}, i);
  }
  const PhKey lo{10, 0};
  const PhKey hi{50, ~uint64_t{0}};
  const auto expect = tree.QueryWindow(lo, hi);
  std::vector<std::pair<PhKey, uint64_t>> visited;
  tree.QueryWindow(lo, hi, [&](const PhKey& k, uint64_t v) {
    visited.emplace_back(k, v);
  });
  EXPECT_EQ(expect, visited);
}

}  // namespace
}  // namespace phtree
