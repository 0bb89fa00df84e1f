// Update(old_key, new_key): outcome semantics on hand-built shapes, the
// erase+insert equivalence against the ReferenceModel oracle (with the deep
// structural validator riding along), the fast-path/fallback split on
// nearby-move workloads, the concurrent wrappers (PhTreeSync and the
// cross-shard PhTreeSharded path), the allocation-fault sweep with an
// update-heavy mix, and the OpKind table's exhaustive round-trip.
#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "common/rng.h"
#include "phtree/phtree.h"
#include "phtree/phtree_sync.h"
#include "phtree/sharded.h"
#include "phtree/validate.h"
#include "testlib/commands.h"
#include "testlib/fault_sweep.h"
#include "testlib/reference_model.h"

namespace phtree {
namespace {

TEST(Update, MovesEntryAndKeepsPayload) {
  PhTree tree(2);
  ASSERT_TRUE(tree.Insert(PhKey{5, 7}, 42));
  EXPECT_EQ(tree.Update(PhKey{5, 7}, PhKey{6, 9}), UpdateOutcome::kMoved);
  EXPECT_FALSE(tree.Contains(PhKey{5, 7}));
  EXPECT_EQ(tree.Find(PhKey{6, 9}), std::optional<uint64_t>(42));
  EXPECT_EQ(tree.size(), 1u);
}

TEST(Update, ValueOverrideReplacesPayload) {
  PhTree tree(2);
  ASSERT_TRUE(tree.Insert(PhKey{5, 7}, 42));
  EXPECT_EQ(tree.Update(PhKey{5, 7}, PhKey{6, 9}, 99),
            UpdateOutcome::kMoved);
  EXPECT_EQ(tree.Find(PhKey{6, 9}), std::optional<uint64_t>(99));
}

TEST(Update, SameKeyIsPayloadRewrite) {
  PhTree tree(2);
  ASSERT_TRUE(tree.Insert(PhKey{5, 7}, 42));
  // Without an override the no-op move keeps the payload...
  EXPECT_EQ(tree.Update(PhKey{5, 7}, PhKey{5, 7}), UpdateOutcome::kMoved);
  EXPECT_EQ(tree.Find(PhKey{5, 7}), std::optional<uint64_t>(42));
  // ...and with one it rewrites the payload.
  EXPECT_EQ(tree.Update(PhKey{5, 7}, PhKey{5, 7}, 11),
            UpdateOutcome::kMoved);
  EXPECT_EQ(tree.Find(PhKey{5, 7}), std::optional<uint64_t>(11));
  EXPECT_EQ(tree.size(), 1u);
}

TEST(Update, OldMissingLeavesTreeUntouched) {
  PhTree tree(2);
  ASSERT_TRUE(tree.Insert(PhKey{1, 1}, 7));
  EXPECT_EQ(tree.Update(PhKey{5, 7}, PhKey{6, 9}),
            UpdateOutcome::kOldMissing);
  EXPECT_EQ(tree.size(), 1u);
  EXPECT_FALSE(tree.Contains(PhKey{6, 9}));
}

TEST(Update, NewOccupiedLeavesBothEntries) {
  PhTree tree(2);
  ASSERT_TRUE(tree.Insert(PhKey{5, 7}, 1));
  ASSERT_TRUE(tree.Insert(PhKey{6, 9}, 2));
  EXPECT_EQ(tree.Update(PhKey{5, 7}, PhKey{6, 9}),
            UpdateOutcome::kNewOccupied);
  EXPECT_EQ(tree.Find(PhKey{5, 7}), std::optional<uint64_t>(1));
  EXPECT_EQ(tree.Find(PhKey{6, 9}), std::optional<uint64_t>(2));
  EXPECT_EQ(tree.size(), 2u);
}

TEST(Update, OldMissingBeatsNewOccupied) {
  // Both preconditions fail: the old key's absence must win, matching the
  // ReferenceModel oracle's precedence.
  PhTree tree(2);
  ASSERT_TRUE(tree.Insert(PhKey{6, 9}, 2));
  EXPECT_EQ(tree.Update(PhKey{5, 7}, PhKey{6, 9}),
            UpdateOutcome::kOldMissing);
  // old == new on an absent key is old-missing too, not a trivial rewrite.
  EXPECT_EQ(tree.Update(PhKey{5, 7}, PhKey{5, 7}),
            UpdateOutcome::kOldMissing);
}

TEST(Update, EmptyTree) {
  PhTree tree(3);
  EXPECT_EQ(tree.Update(PhKey{1, 2, 3}, PhKey{4, 5, 6}),
            UpdateOutcome::kOldMissing);
  EXPECT_TRUE(tree.empty());
}

TEST(Update, NearbyMovesTakeTheFastPath) {
  // A cluster of keys sharing all high bits: small-step moves change only
  // low bits, so the LCA level sits inside the leaf and the relocation
  // never leaves the node.
  PhTree tree(2);
  const uint64_t base = uint64_t{1} << 40;
  for (uint64_t i = 0; i < 64; ++i) {
    ASSERT_TRUE(tree.Insert(PhKey{base + 8 * i, base + 8 * i}, i));
  }
  for (uint64_t i = 0; i < 64; ++i) {
    EXPECT_EQ(tree.Update(PhKey{base + 8 * i, base + 8 * i},
                          PhKey{base + 8 * i + 1, base + 8 * i + 1}),
              UpdateOutcome::kMoved);
  }
  const PhUpdateStats& stats = tree.update_stats();
  EXPECT_EQ(stats.fast_path + stats.fallback, 64u);
  // +1 flips only the lowest bit; every move must stay in its node.
  EXPECT_EQ(stats.fast_path, 64u) << "fallbacks: " << stats.fallback;
  EXPECT_EQ(ValidatePhTreeDeep(tree), "");
}

TEST(Update, LongRangeMovesFallBack) {
  PhTree tree(2);
  Rng rng(7);
  for (int i = 0; i < 128; ++i) {
    tree.InsertOrAssign(PhKey{rng.NextU64(), rng.NextU64()},
                        static_cast<uint64_t>(i));
  }
  const size_t n = tree.size();
  std::vector<PhKey> keys;
  tree.ForEach([&](const PhKey& k, uint64_t) { keys.push_back(k); });
  size_t moved = 0;
  for (const PhKey& k : keys) {
    // A fresh random target: with 64-bit coordinates the XOR's top bit is
    // almost surely above any node's postfix length.
    const PhKey to{rng.NextU64(), rng.NextU64()};
    const UpdateOutcome out = tree.Update(k, to);
    if (out == UpdateOutcome::kMoved) {
      ++moved;
    } else {
      ASSERT_EQ(out, UpdateOutcome::kNewOccupied);
    }
  }
  EXPECT_EQ(tree.size(), n);
  EXPECT_GT(moved, 0u);
  EXPECT_GT(tree.update_stats().fallback, 0u);
  EXPECT_EQ(ValidatePhTreeDeep(tree), "");
}

// Update must be observationally identical to the oracle's
// check-then-erase-then-insert across a random churn mix; the deep
// validator guards the structure after every burst.
TEST(Update, RandomChurnMatchesReferenceModel) {
  constexpr uint32_t kDim = 2;
  constexpr uint64_t kGrid = 64;  // dense grid: collisions and near moves
  PhTree tree(kDim);
  testlib::ReferenceModel model(kDim);
  Rng rng(20260809);
  auto key = [&] { return PhKey{rng.NextBounded(kGrid), rng.NextBounded(kGrid)}; };
  for (int burst = 0; burst < 40; ++burst) {
    for (int op = 0; op < 100; ++op) {
      const uint64_t pick = rng.NextBounded(10);
      if (pick < 3) {
        const PhKey k = key();
        const uint64_t v = rng.NextU64();
        EXPECT_EQ(tree.Insert(k, v), model.Insert(k, v));
      } else if (pick < 5) {
        const PhKey k = key();
        EXPECT_EQ(tree.Erase(k), model.Erase(k));
      } else {
        const PhKey from = key();
        PhKey to = from;
        if (rng.NextBool(0.5)) {
          // Nearby perturbation (the fast-path shape).
          for (uint64_t& c : to) {
            c = (c + rng.NextBounded(3)) % kGrid;
          }
        } else {
          to = key();
        }
        const bool keep = rng.NextBool(0.5);
        const std::optional<uint64_t> v =
            keep ? std::nullopt : std::optional<uint64_t>(rng.NextU64());
        EXPECT_EQ(tree.Update(from, to, v), model.Update(from, to, v));
      }
    }
    ASSERT_EQ(tree.size(), model.size());
    ASSERT_EQ(ValidatePhTreeDeep(tree), "") << "burst " << burst;
    std::vector<std::pair<PhKey, uint64_t>> got, want;
    tree.ForEach([&](const PhKey& k, uint64_t v) { got.emplace_back(k, v); });
    model.ForEach(
        [&](const PhKey& k, uint64_t v) { want.emplace_back(k, v); });
    ASSERT_EQ(got, want) << "burst " << burst;
  }
}

TEST(UpdateSync, DelegatesWithLocking) {
  PhTreeSync tree(2);
  ASSERT_TRUE(tree.Insert(PhKey{5, 7}, 42));
  EXPECT_EQ(tree.Update(PhKey{5, 7}, PhKey{6, 9}), UpdateOutcome::kMoved);
  EXPECT_EQ(tree.Find(PhKey{6, 9}), std::optional<uint64_t>(42));
  EXPECT_EQ(tree.Update(PhKey{5, 7}, PhKey{6, 9}),
            UpdateOutcome::kOldMissing);
  EXPECT_EQ(tree.TryUpdate(PhKey{6, 9}, PhKey{6, 9}, 1),
            UpdateOutcome::kMoved);
  EXPECT_EQ(tree.Find(PhKey{6, 9}), std::optional<uint64_t>(1));
}

TEST(UpdateSharded, SameShardAndCrossShard) {
  PhTreeSharded tree(2, /*num_shards=*/8);
  // Find two keys routed to different shards and one same-shard pair.
  const PhKey a{0, 0};
  PhKey cross{0, 0};
  bool found = false;
  Rng rng(3);
  for (int i = 0; i < 256 && !found; ++i) {
    const PhKey cand{rng.NextU64(), rng.NextU64()};
    if (tree.ShardOf(cand) != tree.ShardOf(a)) {
      cross = cand;
      found = true;
    }
  }
  ASSERT_TRUE(found) << "no cross-shard key in 256 draws";

  ASSERT_TRUE(tree.Insert(a, 42));
  // Same-shard nearby move: single critical section, tree fast path.
  const PhKey b{1, 1};
  ASSERT_EQ(tree.ShardOf(a), tree.ShardOf(b));
  EXPECT_EQ(tree.Update(a, b), UpdateOutcome::kMoved);
  EXPECT_EQ(tree.Find(b), std::optional<uint64_t>(42));

  // Cross-shard move: two locks, insert-then-erase.
  EXPECT_EQ(tree.Update(b, cross), UpdateOutcome::kMoved);
  EXPECT_FALSE(tree.Contains(b));
  EXPECT_EQ(tree.Find(cross), std::optional<uint64_t>(42));
  EXPECT_EQ(tree.size(), 1u);

  // Cross-shard onto an occupied target leaves both entries.
  ASSERT_TRUE(tree.Insert(b, 7));
  EXPECT_EQ(tree.Update(b, cross), UpdateOutcome::kNewOccupied);
  EXPECT_EQ(tree.Find(b), std::optional<uint64_t>(7));
  EXPECT_EQ(tree.Find(cross), std::optional<uint64_t>(42));
  // And a missing source still beats an occupied target.
  EXPECT_EQ(tree.Update(PhKey{123456789, 42}, cross),
            UpdateOutcome::kOldMissing);
}

// Bounded tier-1 run of the exhaustive allocation-fault sweep with the mix
// tilted towards Update: every injected failure inside the in-node move
// (which allocates the rewritten node) and the insert-then-erase fallback
// must roll back cleanly.
TEST(UpdateFaultSweep, UpdateHeavyMixRollsBack) {
  testlib::FaultSweepOptions opts;
  opts.ops = 500;
  opts.seed = 11;
  opts.commands.dim = 2;
  opts.commands.grid_bits = 6;
  opts.commands.w_update = 40;  // dominate the mutation mix
  opts.commands.update_nearby_p = 0.7;
  opts.deep_every = 64;
  const testlib::FaultSweepReport report = testlib::RunFaultSweep(opts);
  EXPECT_TRUE(report.ok()) << report.failure;
  EXPECT_GT(report.ops_run, 0u);
  EXPECT_GT(report.injected_failures, 100u);
}

// Exhaustive OpKind round-trip: every enumerator has a distinct, stable
// name (the static_assert in commands.h ties kNumOpKinds to the enum; this
// covers the name table the same way).
TEST(OpKind, NameTableCoversEveryKind) {
  std::set<std::string> names;
  for (uint32_t k = 0; k < testlib::kNumOpKinds; ++k) {
    const char* name =
        testlib::OpKindName(static_cast<testlib::OpKind>(k));
    ASSERT_NE(name, nullptr);
    EXPECT_TRUE(names.insert(name).second)
        << "duplicate OpKindName " << name;
    EXPECT_STRNE(name, "?") << "kind " << k << " fell through the switch";
  }
  EXPECT_EQ(names.size(), testlib::kNumOpKinds);
  EXPECT_STREQ(testlib::OpKindName(testlib::OpKind::kUpdate), "Update");
}

}  // namespace
}  // namespace phtree
