// The SIMD kernel layer (common/simd.h) promises that every dispatched
// implementation of a kernel is an exact drop-in for its scalar twin.
// These tests brute-force that promise — exhaustive small inputs plus
// seeded random sweeps, each run in both dispatch modes — and cover the
// batched point-query path built on the kernels (PhTree::FindBatch and
// its Sync/Sharded forms, with Find) against the window cursor and a
// std::map.
#include "common/simd.h"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "datasets/datasets.h"
#include "phtree/cursor.h"
#include "phtree/phtree.h"
#include "phtree/phtree_d.h"
#include "phtree/phtree_sync.h"
#include "phtree/sharded.h"

namespace phtree {
namespace {

// Reference semantics of FindFirstStop, written independently of both the
// scalar twin and the vector variants.
size_t FindFirstStopOracle(const uint64_t* a, size_t n, uint64_t ml,
                           uint64_t mu) {
  for (size_t i = 0; i < n; ++i) {
    const bool valid = (a[i] | ml) == a[i] && (a[i] & mu) == a[i];
    if (valid || a[i] > mu) {
      return i;
    }
  }
  return n;
}

// Runs `body` once with the scalar table forced and once with the detected
// table (on hardware without vector support the two rounds coincide — the
// test then simply checks the scalar twin twice).
template <typename Body>
void InBothDispatchModes(const Body& body) {
  {
    simd::ScopedForceScalar force(true);
    ASSERT_FALSE(simd::KernelsUseSimd());
    body("forced-scalar");
  }
  {
    simd::ScopedForceScalar force(false);
    body(simd::ActiveKernelName());
  }
}

TEST(SimdDispatch, KnobRoundTrips) {
  const bool was_scalar = !simd::KernelsUseSimd();
  simd::ForceScalar(true);
  EXPECT_FALSE(simd::KernelsUseSimd());
  EXPECT_STREQ(simd::ActiveKernelName(), "scalar");
  simd::ForceScalar(false);
  EXPECT_EQ(simd::KernelsUseSimd(),
            simd::DetectedOps() != &simd::internal::kScalarOps);
  EXPECT_STREQ(simd::ActiveKernelName(), simd::DetectedOps()->name);
  simd::ForceScalar(was_scalar);
}

TEST(SimdFindFirstStop, ExhaustiveSmallMasksAndAddresses) {
  // Every (mask_lower ⊆ mask_upper) pair over 4 bits, every single-element
  // array, plus every two-element array built from the 16 addresses: both
  // dispatch modes and the scalar twin must match the oracle exactly.
  InBothDispatchModes([](const char* mode) {
    for (uint64_t mu = 0; mu < 16; ++mu) {
      for (uint64_t ml = 0; ml < 16; ++ml) {
        if ((ml & ~mu) != 0) {
          continue;  // not a legal mask pair
        }
        for (uint64_t a0 = 0; a0 < 16; ++a0) {
          const uint64_t one[1] = {a0};
          const size_t want1 = FindFirstStopOracle(one, 1, ml, mu);
          ASSERT_EQ(simd::FindFirstStop(one, 1, ml, mu), want1)
              << mode << " ml=" << ml << " mu=" << mu << " a=" << a0;
          ASSERT_EQ(simd::internal::FindFirstStopScalar(one, 1, ml, mu),
                    want1);
          for (uint64_t a1 = 0; a1 < 16; ++a1) {
            const uint64_t two[2] = {a0, a1};
            const size_t want2 = FindFirstStopOracle(two, 2, ml, mu);
            ASSERT_EQ(simd::FindFirstStop(two, 2, ml, mu), want2)
                << mode << " ml=" << ml << " mu=" << mu << " a0=" << a0
                << " a1=" << a1;
          }
        }
      }
    }
  });
}

TEST(SimdFindFirstStop, RandomSweep64Bit) {
  // Random full-width masks and arrays spanning the vector width (0..19
  // elements covers the 4-lane main loop plus every tail length), with the
  // arrays biased so that stops land at controlled positions.
  InBothDispatchModes([](const char* mode) {
    Rng rng(20260809);
    for (int round = 0; round < 2000; ++round) {
      const uint64_t mu = rng.NextU64();
      const uint64_t ml = rng.NextU64() & mu;  // ml ⊆ mu
      uint64_t addrs[19];
      const size_t n = rng.NextBounded(20);
      for (size_t i = 0; i < n; ++i) {
        switch (rng.NextBounded(3)) {
          case 0:  // definitely valid
            addrs[i] = (rng.NextU64() & mu) | ml;
            break;
          case 1:  // arbitrary
            addrs[i] = rng.NextU64();
            break;
          default:  // near the window top, exercising the a > mu branch
            addrs[i] = mu + rng.NextBounded(3) - 1;
            break;
        }
      }
      const size_t want = FindFirstStopOracle(addrs, n, ml, mu);
      ASSERT_EQ(simd::FindFirstStop(addrs, n, ml, mu), want)
          << mode << " round " << round;
      ASSERT_EQ(simd::internal::FindFirstStopScalar(addrs, n, ml, mu), want)
          << "scalar twin, round " << round;
    }
  });
}

TEST(SimdCountOnes, ExhaustiveLengthsAndRandomWords) {
  InBothDispatchModes([](const char* mode) {
    Rng rng(7);
    std::vector<uint64_t> words(67);
    for (auto& w : words) {
      w = rng.NextU64() & rng.NextU64();  // vary density
    }
    for (size_t n = 0; n <= words.size(); ++n) {
      uint64_t want = 0;
      for (size_t i = 0; i < n; ++i) {
        want += static_cast<uint64_t>(std::popcount(words[i]));
      }
      ASSERT_EQ(simd::CountOnesWords(words.data(), n), want)
          << mode << " n=" << n;
      ASSERT_EQ(simd::internal::CountOnesWordsScalar(words.data(), n), want);
    }
    // Edge words.
    const uint64_t edges[4] = {0, ~uint64_t{0}, 1, uint64_t{1} << 63};
    ASSERT_EQ(simd::CountOnesWords(edges, 4), 66u) << mode;
  });
}

TEST(SimdKeyInBox, ExhaustiveSmallAndRandomSweep) {
  InBothDispatchModes([](const char* mode) {
    // Exhaustive over a 2-dimensional 0..3 grid.
    for (uint64_t k0 = 0; k0 < 4; ++k0) {
      for (uint64_t k1 = 0; k1 < 4; ++k1) {
        for (uint64_t l0 = 0; l0 < 4; ++l0) {
          for (uint64_t h0 = 0; h0 < 4; ++h0) {
            for (uint64_t l1 = 0; l1 < 4; ++l1) {
              for (uint64_t h1 = 0; h1 < 4; ++h1) {
                const uint64_t key[2] = {k0, k1};
                const uint64_t lo[2] = {l0, l1};
                const uint64_t hi[2] = {h0, h1};
                const bool want =
                    k0 >= l0 && k0 <= h0 && k1 >= l1 && k1 <= h1;
                ASSERT_EQ(simd::KeyInBox(key, lo, hi, 2), want) << mode;
              }
            }
          }
        }
      }
    }
    // Random sweep over every dimensionality the tree supports, with keys
    // biased onto box corners so boundary equality is exercised.
    Rng rng(99);
    for (int round = 0; round < 4000; ++round) {
      const size_t dim = 1 + rng.NextBounded(16);
      uint64_t key[16];
      uint64_t lo[16];
      uint64_t hi[16];
      bool want = true;
      for (size_t d = 0; d < dim; ++d) {
        uint64_t a = rng.NextU64();
        uint64_t b = rng.NextU64();
        if (a > b) {
          std::swap(a, b);
        }
        lo[d] = a;
        hi[d] = b;
        switch (rng.NextBounded(4)) {
          case 0:
            key[d] = a;  // on the lower corner
            break;
          case 1:
            key[d] = b;  // on the upper corner
            break;
          default:
            key[d] = rng.NextU64();
            break;
        }
        want = want && key[d] >= lo[d] && key[d] <= hi[d];
      }
      ASSERT_EQ(simd::KeyInBox(key, lo, hi, dim), want)
          << mode << " round " << round << " dim " << dim;
      ASSERT_EQ(simd::internal::KeyInBoxScalar(key, lo, hi, dim), want);
    }
  });
}

// Reference for ZSamplePrefix: one bit at a time, MSB-first per level,
// dimension 0 first within a level — exactly how the tree's hypercube
// addresses interleave.
uint64_t ZSampleOracle(const uint64_t* key, uint32_t dim) {
  uint64_t s = 0;
  for (uint32_t level = 0; level < 64 / dim; ++level) {
    for (uint32_t d = 0; d < dim; ++d) {
      s = (s << 1) | ((key[d] >> (63 - level)) & 1u);
    }
  }
  return s;
}

TEST(SimdZSample, SingleBitPositionsExhaustive) {
  // For every dimensionality, setting exactly one sampled bit in the key
  // must set exactly the corresponding interleaved bit in the sample.
  InBothDispatchModes([](const char* mode) {
    for (uint32_t dim = 1; dim <= 16; ++dim) {
      const uint32_t levels = 64 / dim;
      for (uint32_t d = 0; d < dim; ++d) {
        for (uint32_t level = 0; level < levels; ++level) {
          uint64_t key[16] = {};
          key[d] = uint64_t{1} << (63 - level);
          const uint64_t want = uint64_t{1}
                                << (levels * dim - 1 - (level * dim + d));
          ASSERT_EQ(simd::ZSamplePrefix(key, dim), want)
              << mode << " dim=" << dim << " d=" << d << " level=" << level;
        }
        // An unsampled bit (below the top `levels`) must not leak in.
        if (levels < 64) {
          uint64_t key[16] = {};
          key[d] = uint64_t{1} << (63 - levels);
          ASSERT_EQ(simd::ZSamplePrefix(key, dim), 0u) << mode << " dim="
                                                       << dim << " d=" << d;
        }
      }
    }
  });
}

TEST(SimdZSample, MatchesOracleRandomSweep) {
  InBothDispatchModes([](const char* mode) {
    Rng rng(4242);
    uint64_t key[64];
    for (int round = 0; round < 4000; ++round) {
      // Dense coverage of low dims plus the div/mod edge cases (33..64
      // sample one bit per dimension; 64 is the contract's upper bound).
      const uint32_t dims[] = {1,  2,  3,  4,  5,  6,  7,  8,
                               14, 16, 21, 31, 32, 33, 63, 64};
      const uint32_t dim = dims[rng.NextBounded(16)];
      for (uint32_t d = 0; d < dim; ++d) {
        key[d] = rng.NextU64();
      }
      const uint64_t want = ZSampleOracle(key, dim);
      ASSERT_EQ(simd::ZSamplePrefix(key, dim), want)
          << mode << " round " << round << " dim " << dim;
      ASSERT_EQ(simd::internal::ZSampleScalar(key, dim), want)
          << "scalar twin, round " << round << " dim " << dim;
    }
  });
}

// ---- FindBatch --------------------------------------------------------------

PhKey RandomGridKey(Rng& rng, uint32_t dim, uint32_t bits) {
  PhKey key(dim);
  for (auto& w : key) {
    w = rng.NextU64() & ((uint64_t{1} << bits) - 1);
  }
  return key;
}

TEST(FindBatch, DuplicateMissingUnsortedKeys) {
  InBothDispatchModes([](const char* mode) {
    PhTree tree(3);
    const PhKey a{5, 9, 1};
    const PhKey b{5, 9, 2};
    const PhKey c{1000, 2, 77};
    ASSERT_TRUE(tree.Insert(a, 10));
    ASSERT_TRUE(tree.Insert(b, 20));
    ASSERT_TRUE(tree.Insert(c, 30));
    const PhKey missing{5, 9, 3};
    // Deliberately unsorted, with duplicates of both present and absent
    // keys.
    const std::vector<PhKey> batch{c, missing, a, a, b, missing, c};
    const auto got = tree.FindBatch(batch);
    ASSERT_EQ(got.size(), batch.size()) << mode;
    EXPECT_EQ(got[0], std::optional<uint64_t>(30)) << mode;
    EXPECT_EQ(got[1], std::nullopt) << mode;
    EXPECT_EQ(got[2], std::optional<uint64_t>(10)) << mode;
    EXPECT_EQ(got[3], std::optional<uint64_t>(10)) << mode;
    EXPECT_EQ(got[4], std::optional<uint64_t>(20)) << mode;
    EXPECT_EQ(got[5], std::nullopt) << mode;
    EXPECT_EQ(got[6], std::optional<uint64_t>(30)) << mode;
  });
}

TEST(FindBatch, EmptyBatchAndEmptyTree) {
  PhTree tree(2);
  EXPECT_TRUE(tree.FindBatch({}).empty());
  const std::vector<PhKey> batch{{1, 2}, {3, 4}};
  const auto got = tree.FindBatch(batch);
  ASSERT_EQ(got.size(), 2u);
  EXPECT_EQ(got[0], std::nullopt);
  EXPECT_EQ(got[1], std::nullopt);
}

// Find and FindBatch run one descent, so neither is checked against the
// other: every answer must equal the window cursor's one-key scan and a
// std::map holding the same entries.
void ExpectLookupsMatch(const PhTree& tree,
                        const std::map<PhKey, uint64_t>& model,
                        const std::vector<PhKey>& batch,
                        const std::string& where) {
  const auto got = tree.FindBatch(batch);
  ASSERT_EQ(got.size(), batch.size()) << where;
  for (size_t i = 0; i < batch.size(); ++i) {
    const auto it = model.find(batch[i]);
    const std::optional<uint64_t> want =
        it == model.end() ? std::nullopt : std::optional(it->second);
    const TreeCursor cursor(tree, batch[i], batch[i]);
    ASSERT_EQ(cursor.Valid() ? std::optional(cursor.value()) : std::nullopt,
              want)
        << where << " cursor i=" << i;
    ASSERT_EQ(tree.Find(batch[i]), want) << where << " Find i=" << i;
    ASSERT_EQ(got[i], want) << where << " FindBatch i=" << i;
  }
}

// The same inserts and erases on a plain and an MVCC tree.
struct PlainAndMvcc {
  explicit PlainAndMvcc(uint32_t dim) : plain(dim), mvcc(dim) {
    mvcc.EnableMvcc(&epochs);
  }
  void Insert(const PhKey& key, uint64_t value) {
    if (model.emplace(key, value).second) {
      ASSERT_TRUE(plain.Insert(key, value));
      ASSERT_TRUE(mvcc.Insert(key, value));
    }
  }
  void Erase(const PhKey& key) {
    const bool present = model.erase(key) > 0;
    ASSERT_EQ(plain.Erase(key), present);
    ASSERT_EQ(mvcc.Erase(key), present);
  }
  void ExpectLookups(const std::vector<PhKey>& batch,
                     const std::string& where) {
    ExpectLookupsMatch(plain, model, batch, where + " plain");
    ExpectLookupsMatch(mvcc, model, batch, where + " mvcc");
  }

  EpochManager epochs;
  PhTree plain;
  PhTree mvcc;
  std::map<PhKey, uint64_t> model;
};

TEST(FindBatch, MatchesCursorAndMapOnRandomTrees) {
  InBothDispatchModes([](const char* mode) {
    Rng rng(20260808);
    for (uint32_t dim : {1u, 2u, 3u, 6u, 14u}) {
      PlainAndMvcc trees(dim);
      // Narrow grid: plenty of shared prefixes, duplicates and misses.
      const uint32_t bits = dim <= 3 ? 6 : 4;
      for (int i = 0; i < 600; ++i) {
        trees.Insert(RandomGridKey(rng, dim, bits), rng.NextU64());
      }
      for (int i = 0; i < 150; ++i) {
        trees.Erase(RandomGridKey(rng, dim, bits));
      }
      std::vector<PhKey> batch;
      for (int i = 0; i < 500; ++i) {
        batch.push_back(RandomGridKey(rng, dim, bits));
      }
      // A stretch of consecutive duplicates.
      batch.push_back(batch[0]);
      batch.push_back(batch[0]);
      trees.ExpectLookups(batch,
                          std::string(mode) + " dim=" + std::to_string(dim));
    }
  });
}

// Clustered and TIGER-like trees have deep paths with long infixes. Each
// sampled key comes with a copy of itself and with one variant per bit
// position (bit b flipped in dimension b % dim), so consecutive sorted keys
// part at every depth: batches resume at every level of a path and after
// infix mismatches, duplicates and misses.
TEST(FindBatch, ResumesAtEveryDepthOnClusteredTrees) {
  InBothDispatchModes([](const char* mode) {
    for (const bool tiger : {false, true}) {
      const Dataset ds = tiger ? GenerateTigerLike(4000, 11)
                               : GenerateCluster(4000, 3, 0.5, 11);
      PlainAndMvcc trees(ds.dim);
      for (size_t i = 0; i < ds.n(); ++i) {
        trees.Insert(EncodeKeyD(ds.point(i)), i);
      }
      Rng rng(77);
      std::vector<PhKey> batch;
      for (int i = 0; i < 150; ++i) {
        const PhKey key = EncodeKeyD(ds.point(rng.NextBounded(ds.n())));
        batch.push_back(key);
        batch.push_back(key);
        for (uint32_t b = 0; b < kBitWidth; ++b) {
          PhKey variant = key;
          variant[b % ds.dim] ^= uint64_t{1} << b;
          batch.push_back(std::move(variant));
        }
      }
      // Erase a third of the sampled keys: their lookups now miss at the
      // end of a shared path.
      for (size_t i = 0; i < batch.size(); i += 3 * (kBitWidth + 2)) {
        trees.Erase(batch[i]);
      }
      trees.ExpectLookups(batch, std::string(mode) +
                                     (tiger ? " tiger" : " cluster"));
    }
  });
}

TEST(FindBatch, SyncAndShardedMatchMap) {
  InBothDispatchModes([](const char* mode) {
    Rng rng(31337);
    const uint32_t dim = 3;
    std::map<PhKey, uint64_t> model;
    PhTreeSync sync(dim);
    PhTreeSharded sharded_z(dim, 4, ShardRouting::kZPrefix);
    PhTreeSharded sharded_h(dim, 4, ShardRouting::kHash);
    for (int i = 0; i < 400; ++i) {
      const PhKey key = RandomGridKey(rng, dim, 8);
      const uint64_t value = rng.NextU64();
      if (model.emplace(key, value).second) {
        sync.Insert(key, value);
        sharded_z.Insert(key, value);
        sharded_h.Insert(key, value);
      }
    }
    std::vector<PhKey> batch;
    for (int i = 0; i < 300; ++i) {
      batch.push_back(RandomGridKey(rng, dim, 8));
    }
    const PhTreeSharded* trees[] = {&sync, &sharded_z, &sharded_h};
    for (const PhTreeSharded* tree : trees) {
      const auto got = tree->FindBatch(batch);
      ASSERT_EQ(got.size(), batch.size());
      for (size_t i = 0; i < batch.size(); ++i) {
        const auto it = model.find(batch[i]);
        const std::optional<uint64_t> want =
            it == model.end() ? std::nullopt : std::optional(it->second);
        const TreeCursor cursor(tree->UnsafeShard(tree->ShardOf(batch[i])),
                                batch[i], batch[i]);
        ASSERT_EQ(
            cursor.Valid() ? std::optional(cursor.value()) : std::nullopt,
            want)
            << mode << " cursor i=" << i;
        ASSERT_EQ(tree->Find(batch[i]), want) << mode << " Find i=" << i;
        ASSERT_EQ(got[i], want) << mode << " FindBatch i=" << i;
      }
    }
  });
}

}  // namespace
}  // namespace phtree
