// Allocation-fault injection: the FaultInjector itself, the Try* status
// API's commit-or-rollback contract on hand-built shapes, the sharded
// tree's parallel builds and cross-shard move under a failed allocation,
// and the bounded tier-1 run of the exhaustive per-site sweep
// (testlib/fault_sweep). The full 50k-op acceptance sweep is the
// `fault_sweep_acceptance` ctest in fuzz/.
#include <gtest/gtest.h>

#include <cstdio>
#include <new>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/fault.h"
#include "common/rng.h"
#include "phtree/phtree.h"
#include "phtree/sharded.h"
#include "phtree/validate.h"
#include "testlib/fault_sweep.h"

namespace phtree {
namespace {

/// Installs a FaultInjector for one test body.
class ScopedInjector {
 public:
  ScopedInjector() { SetFaultInjector(&inj_); }
  ~ScopedInjector() { SetFaultInjector(nullptr); }
  FaultInjector* operator->() { return &inj_; }
  FaultInjector& get() { return inj_; }

 private:
  FaultInjector inj_;
};

TEST(FaultInjector, NoInjectorNeverFails) {
  EXPECT_FALSE(FaultHit(FaultSite::kArenaNodeAlloc));
  EXPECT_FALSE(FaultHit(FaultSite::kVfsWrite));
}

TEST(FaultInjector, CountdownFiresExactlyOnce) {
  ScopedInjector inj;
  inj->ArmCountdown(FaultSite::kArenaNodeAlloc, 2);
  EXPECT_FALSE(FaultHit(FaultSite::kArenaNodeAlloc));  // hit 1
  EXPECT_FALSE(FaultHit(FaultSite::kWordAlloc));       // other site: no count
  EXPECT_FALSE(inj->fired());
  EXPECT_TRUE(FaultHit(FaultSite::kArenaNodeAlloc));   // hit 2 fires
  EXPECT_TRUE(inj->fired());
  EXPECT_FALSE(FaultHit(FaultSite::kArenaNodeAlloc));  // one-shot
  EXPECT_EQ(inj->failures(), 1u);
  EXPECT_EQ(inj->site_hits(FaultSite::kArenaNodeAlloc), 3u);
}

TEST(FaultInjector, GlobalIndexCountsAcrossSites) {
  ScopedInjector inj;
  inj->ArmGlobalIndex(2);  // 0-based: the third hit overall
  EXPECT_FALSE(FaultHit(FaultSite::kArenaNodeAlloc));
  EXPECT_FALSE(FaultHit(FaultSite::kWordAlloc));
  EXPECT_TRUE(FaultHit(FaultSite::kVfsWrite));
  EXPECT_TRUE(inj->fired());
}

TEST(FaultInjector, SuspendMasksHits) {
  ScopedInjector inj;
  inj->ArmGlobalIndex(0);
  {
    FaultInjectorSuspend suspend;
    EXPECT_FALSE(FaultHit(FaultSite::kArenaNodeAlloc));
  }
  EXPECT_FALSE(inj->fired());
  EXPECT_TRUE(FaultHit(FaultSite::kArenaNodeAlloc));
  EXPECT_TRUE(inj->fired());
}

TEST(FaultInjector, DisarmStopsInjection) {
  ScopedInjector inj;
  inj->ArmGlobalIndex(0);
  inj->Disarm();
  EXPECT_FALSE(FaultHit(FaultSite::kArenaNodeAlloc));
  EXPECT_FALSE(inj->fired());
}

TEST(TryApi, StatusesWithoutInjection) {
  PhTree tree(2);
  const PhKey a{1, 2};
  EXPECT_EQ(tree.TryInsert(a, 7), OpStatus::kApplied);
  EXPECT_EQ(tree.TryInsert(a, 8), OpStatus::kNoop);  // duplicate
  EXPECT_EQ(tree.Find(a), std::optional<uint64_t>(7));
  EXPECT_EQ(tree.TryInsertOrAssign(a, 9), OpStatus::kNoop);  // overwrote
  EXPECT_EQ(tree.Find(a), std::optional<uint64_t>(9));
  EXPECT_EQ(tree.TryErase(a), OpStatus::kApplied);
  EXPECT_EQ(tree.TryErase(a), OpStatus::kNoop);  // miss
  EXPECT_EQ(tree.size(), 0u);
}

TEST(TryApi, FirstAllocationFailureLeavesEmptyTree) {
  ScopedInjector inj;
  PhTree tree(2);
  const PhKey a{1, 2};
  inj->ArmGlobalIndex(0);
  EXPECT_EQ(tree.TryInsert(a, 7), OpStatus::kNoMem);
  EXPECT_TRUE(inj->fired());
  inj->Disarm();
  EXPECT_EQ(tree.size(), 0u);
  EXPECT_FALSE(tree.Find(a).has_value());
  // The same op retried clean must succeed.
  EXPECT_EQ(tree.TryInsert(a, 7), OpStatus::kApplied);
  EXPECT_EQ(tree.Find(a), std::optional<uint64_t>(7));
}

TEST(TryApi, ThrowingApiRollsBackOnEverySite) {
  ScopedInjector inj;
  PhTree tree(2);
  tree.Insert(PhKey{0, 0}, 1);
  tree.Insert(PhKey{~0ull, ~0ull}, 2);  // the next insert splits near the root
  const size_t before = tree.size();
  const PhKey key{~0ull, 0};
  // Probe every allocation-site index of the op; each injected bad_alloc
  // must leave the tree untouched and deep-valid. A split allocates at
  // least once, so index 0 always throws.
  size_t throws = 0;
  for (uint64_t i = 0;; ++i) {
    ASSERT_LT(i, 64u) << "split insert did not run out of fault sites";
    inj->ArmGlobalIndex(i);
    try {
      tree.Insert(key, 3);
      inj->Disarm();
      break;  // op completed (fault exhausted or absorbed)
    } catch (const std::bad_alloc&) {
      inj->Disarm();
      ++throws;
      ASSERT_EQ(tree.size(), before);
      ASSERT_FALSE(tree.Find(key).has_value());
      ASSERT_EQ(ValidatePhTreeDeep(tree), "");
    }
  }
  EXPECT_GE(throws, 1u);
  EXPECT_EQ(tree.size(), before + 1);
  EXPECT_EQ(tree.Find(key), std::optional<uint64_t>(3));
  EXPECT_EQ(ValidatePhTreeDeep(tree), "");
}

TEST(TryApi, BulkLoadIntoEmptyTreeIsAllOrNothing) {
  ScopedInjector inj;
  PhTree tree(2);
  std::vector<PhEntry> entries;
  for (uint64_t i = 0; i < 64; ++i) {
    entries.push_back({{i * 3, i * 5 + 1}, i});
  }
  // The builder writes every node once; fail each of its allocations in
  // turn. Each failure must free every built block and leave the tree
  // empty, and the retry must then succeed.
  size_t failures = 0;
  for (uint64_t site = 0;; ++site) {
    ASSERT_LT(site, 4 * entries.size()) << "builder never ran out of sites";
    inj->ArmGlobalIndex(site);
    size_t inserted = 0;
    bool threw = false;
    try {
      inserted = tree.BulkLoad(entries);
    } catch (const std::bad_alloc&) {
      threw = true;
    }
    const bool fired = inj->fired();
    inj->Disarm();
    if (!fired) {
      ASSERT_FALSE(threw);
      EXPECT_EQ(inserted, entries.size());
      break;
    }
    ASSERT_TRUE(threw) << "site " << site;
    ++failures;
    ASSERT_TRUE(tree.empty()) << "site " << site;
    ASSERT_EQ(tree.root(), nullptr) << "site " << site;
    ASSERT_EQ(tree.arena()->LiveBytes(), 0u) << "site " << site;
    ASSERT_EQ(ValidatePhTreeDeep(tree), "") << "site " << site;
  }
  EXPECT_GT(failures, 10u);
  EXPECT_EQ(tree.size(), entries.size());
  EXPECT_EQ(ValidatePhTreeDeep(tree), "");
  for (const PhEntry& e : entries) {
    EXPECT_EQ(tree.Find(e.key), std::optional<uint64_t>(e.value));
  }
}

TEST(TryApi, BulkLoadIntoNonEmptyTreeKeepsPrefix) {
  ScopedInjector inj;
  PhTree tree(2);
  ASSERT_TRUE(tree.Insert(PhKey{~0ull, ~0ull}, 999));
  std::vector<PhEntry> entries;
  for (uint64_t i = 0; i < 64; ++i) {
    entries.push_back({{i * 3, i * 5 + 1}, i});
  }
  // A non-empty tree inserts entry by entry. Fail the third node
  // allocation: 64 spread keys build many nodes, so this lands mid-batch;
  // each entry is atomic, so the prefix stays.
  inj->ArmCountdown(FaultSite::kArenaNodeAlloc, 3);
  size_t inserted = 0;
  bool threw = false;
  try {
    inserted = tree.BulkLoad(entries);
  } catch (const std::bad_alloc&) {
    threw = true;
  }
  inj->Disarm();
  ASSERT_TRUE(threw);
  (void)inserted;
  EXPECT_GT(tree.size(), 1u);
  EXPECT_LT(tree.size(), entries.size() + 1);
  EXPECT_EQ(ValidatePhTreeDeep(tree), "");
  EXPECT_EQ(tree.Find(PhKey{~0ull, ~0ull}), std::optional<uint64_t>(999));
  // Every stored entry is a prefix entry with its original payload.
  size_t stored = 0;
  bool gap = false;
  for (const PhEntry& e : entries) {
    const auto found = tree.Find(e.key);
    if (found.has_value()) {
      EXPECT_FALSE(gap) << "entry stored after a missing one";
      EXPECT_EQ(*found, e.value);
      ++stored;
    } else {
      gap = true;
    }
  }
  EXPECT_EQ(stored + 1, tree.size());
}

// ---- Sharded trees under a failed allocation ------------------------------

using Entries = std::vector<std::pair<PhKey, uint64_t>>;

/// Every shard's entries, shard by shard.
std::vector<Entries> ShardContents(const PhTreeSharded& tree) {
  std::vector<Entries> out(tree.num_shards());
  for (uint32_t s = 0; s < tree.num_shards(); ++s) {
    tree.UnsafeShard(s).ForEach(
        [&](const PhKey& key, uint64_t v) { out[s].emplace_back(key, v); });
  }
  return out;
}

std::vector<PhEntry> RandomEntries(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<PhEntry> entries;
  for (uint64_t i = 0; i < n; ++i) {
    entries.push_back({{rng.NextU64(), rng.NextU64()}, i});
  }
  return entries;
}

TEST(ShardedFault, BulkLoadFailureReachesTheCallerAndEmptiesOneShard) {
  constexpr uint32_t kShards = 8;
  const std::vector<PhEntry> entries = RandomEntries(20000, 91);
  ScopedInjector inj;
  // The node allocations of a clean parallel build, counted on a twin.
  PhTreeSharded twin(2, kShards);
  const uint64_t before = inj->site_hits(FaultSite::kArenaNodeAlloc);
  ASSERT_EQ(twin.BulkLoad(entries), entries.size());
  const uint64_t builds = inj->site_hits(FaultSite::kArenaNodeAlloc) - before;

  // Fail one allocation halfway: the shard building it fails, and which
  // shard that is depends on scheduling.
  PhTreeSharded tree(2, kShards);
  inj->ArmCountdown(FaultSite::kArenaNodeAlloc, builds / 2);
  EXPECT_THROW(tree.BulkLoad(entries), std::bad_alloc);
  EXPECT_TRUE(inj->fired());
  inj->Disarm();
  std::vector<size_t> routed(kShards, 0);
  for (const PhEntry& e : entries) {
    ++routed[tree.ShardOf(e.key)];
  }
  size_t failed = 0;
  size_t built = 0;
  for (uint32_t s = 0; s < kShards; ++s) {
    const PhTree& shard = tree.UnsafeShard(s);
    EXPECT_EQ(ValidatePhTreeDeep(shard), "") << "shard " << s;
    ASSERT_GT(routed[s], 0u);
    if (shard.empty()) {
      ++failed;
    } else {
      EXPECT_EQ(shard.size(), routed[s]) << "shard " << s;
      built += shard.size();
    }
  }
  EXPECT_EQ(failed, 1u);
  EXPECT_EQ(tree.size(), built);
  for (const PhEntry& e : entries) {
    const bool kept = !tree.UnsafeShard(tree.ShardOf(e.key)).empty();
    ASSERT_EQ(tree.Find(e.key),
              kept ? std::optional<uint64_t>(e.value) : std::nullopt);
  }
}

TEST(ShardedFault, LoadFailureDuringTheRebuildLeavesTheShardsUnchanged) {
  constexpr uint32_t kShards = 4;
  PhTreeSharded source(2, kShards);
  ASSERT_EQ(source.BulkLoad(RandomEntries(5000, 92)), 5000u);
  const std::string path = testing::TempDir() + "/sharded_fault_load.pht";
  ASSERT_TRUE(source.Save(path).ok());
  PhTreeSharded tree(2, kShards);
  ASSERT_EQ(tree.BulkLoad(RandomEntries(300, 93)), 300u);
  const std::vector<Entries> contents = ShardContents(tree);
  std::vector<const PhTree*> shards;
  for (uint32_t s = 0; s < kShards; ++s) {
    shards.push_back(&tree.UnsafeShard(s));
  }

  ScopedInjector inj;
  PhTreeSharded twin(2, kShards);
  const uint64_t before = inj->site_hits(FaultSite::kArenaNodeAlloc);
  ASSERT_TRUE(twin.Load(path).ok());
  const uint64_t builds = inj->site_hits(FaultSite::kArenaNodeAlloc) - before;
  inj->ArmCountdown(FaultSite::kArenaNodeAlloc, builds / 2);
  EXPECT_THROW((void)tree.Load(path), std::bad_alloc);
  EXPECT_TRUE(inj->fired());
  inj->Disarm();
  for (uint32_t s = 0; s < kShards; ++s) {
    EXPECT_EQ(&tree.UnsafeShard(s), shards[s]) << "shard " << s;
    EXPECT_EQ(ValidatePhTreeDeep(tree.UnsafeShard(s)), "") << "shard " << s;
  }
  EXPECT_EQ(ShardContents(tree), contents);
  std::remove(path.c_str());
}

TEST(ShardedFault, CrossShardUpdateWhoseEraseFailsChangesNeitherShard) {
  // Two z-prefix shards split on dimension 0's top bit; the move takes a
  // key of shard 0 to a free key of shard 1.
  const std::vector<PhEntry> entries = RandomEntries(400, 94);
  PhTreeSharded tree(2, 2, ShardRouting::kZPrefix);
  PhTreeSharded twin(2, 2, ShardRouting::kZPrefix);
  ASSERT_EQ(tree.BulkLoad(entries), entries.size());
  ASSERT_EQ(twin.BulkLoad(entries), entries.size());
  PhKey old_key;
  tree.UnsafeShard(0).ForEach([&](const PhKey& key, uint64_t) {
    if (old_key.empty()) {
      old_key = key;
    }
  });
  ASSERT_FALSE(old_key.empty());
  const PhKey new_key{old_key[0] | (uint64_t{1} << 63), old_key[1]};
  ASSERT_EQ(tree.ShardOf(new_key), 1u);
  ASSERT_FALSE(tree.Find(new_key).has_value());
  const uint64_t value = *tree.Find(old_key);

  // The allocation hits of the move's two legs, counted on the twin.
  ScopedInjector inj;
  const uint64_t start = inj->hits();
  ASSERT_TRUE(twin.Insert(new_key, value));
  const uint64_t insert_hits = inj->hits() - start;
  ASSERT_TRUE(twin.Erase(old_key));
  const uint64_t erase_hits = inj->hits() - start - insert_hits;
  ASSERT_GE(erase_hits, 1u);

  // Fail each allocation of the erase leg in turn: the insert is undone.
  const std::vector<Entries> contents = ShardContents(tree);
  for (uint64_t j = 0; j < erase_hits; ++j) {
    inj->ArmGlobalIndex(insert_hits + j);
    EXPECT_EQ(tree.TryUpdate(old_key, new_key), UpdateOutcome::kNoMem)
        << "erase hit " << j;
    EXPECT_TRUE(inj->fired());
    inj->Disarm();
    EXPECT_EQ(ShardContents(tree), contents) << "erase hit " << j;
    for (uint32_t s = 0; s < 2; ++s) {
      EXPECT_EQ(ValidatePhTreeDeep(tree.UnsafeShard(s)), "") << "shard " << s;
    }
  }
  EXPECT_EQ(tree.TryUpdate(old_key, new_key), UpdateOutcome::kMoved);
  EXPECT_EQ(ShardContents(tree), ShardContents(twin));
}

// The bounded tier-1 sweep: every allocation-site index of every mutating
// command in a seeded trace is forced to fail once; each failure must roll
// back to an oracle-identical, deep-valid tree. ~190 mutating ops inject
// over a thousand failures.
TEST(FaultSweep, EveryInjectedFailureRollsBack) {
  testlib::FaultSweepOptions opts;
  opts.ops = 600;
  opts.seed = 42;
  opts.commands.dim = 2;
  opts.commands.grid_bits = 6;  // dense: splits, merges, repr switches
  opts.deep_every = 64;
  const testlib::FaultSweepReport report = testlib::RunFaultSweep(opts);
  EXPECT_TRUE(report.ok()) << report.failure;
  EXPECT_GT(report.ops_run, 0u);
  EXPECT_GT(report.injected_failures, 100u);
  EXPECT_GT(report.deep_checks, 0u);
}

TEST(FaultSweep, HighDimWideNodes) {
  testlib::FaultSweepOptions opts;
  opts.ops = 250;
  opts.seed = 7;
  opts.commands.dim = 6;  // wider nodes: LHC/BHC switches under failure
  opts.commands.grid_bits = 3;
  opts.deep_every = 64;
  const testlib::FaultSweepReport report = testlib::RunFaultSweep(opts);
  EXPECT_TRUE(report.ok()) << report.failure;
  EXPECT_GT(report.injected_failures, 0u);
}

}  // namespace
}  // namespace phtree
