// Epoch-based reclamation: EpochManager advance rules, the deferred-free
// ordering contract (a retired node's memory stays intact — and is never
// recycled — while any read guard that could see it is open), the fault
// sweep under the MVCC policy, and parity of the mutation engine's two
// policies (the same tree from the same allocations). The read-after-
// retire checks double as ASan canaries: if the arena freed (and
// poisoned) a retired node before its grace period, the reads here would
// abort the Asan tier-1 leg.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <optional>
#include <set>
#include <thread>
#include <utility>
#include <vector>

#include "common/fault.h"
#include "common/rng.h"
#include "phtree/arena.h"
#include "phtree/phtree.h"
#include "phtree/phtree_sync.h"
#include "phtree/validate.h"
#include "testlib/fault_sweep.h"

namespace phtree {
namespace {

TEST(EpochManager, AdvancesFreelyWhenIdle) {
  EpochManager mgr;
  EXPECT_EQ(mgr.epoch(), 1u);
  EXPECT_TRUE(mgr.TryAdvance());
  EXPECT_TRUE(mgr.TryAdvance());
  EXPECT_EQ(mgr.epoch(), 3u);
}

TEST(EpochManager, OpenGuardBoundsAdvanceToOne) {
  EpochManager mgr;
  {
    EpochManager::ReadGuard guard(mgr);
    // The guard announced epoch 1. One advance (to 2) is allowed — the
    // reader provably entered no later than 1 — but a second would let a
    // node retired at 2 be freed under the reader's feet.
    EXPECT_TRUE(mgr.TryAdvance());
    EXPECT_EQ(mgr.epoch(), 2u);
    EXPECT_FALSE(mgr.TryAdvance());
    EXPECT_FALSE(mgr.TryAdvance());
    EXPECT_EQ(mgr.epoch(), 2u);
  }
  EXPECT_TRUE(mgr.TryAdvance());
  EXPECT_EQ(mgr.epoch(), 3u);
}

TEST(EpochManager, SynchronizeFullGraceWaitsForGuards) {
  EpochManager mgr;
  std::atomic<bool> entered{false};
  std::atomic<bool> release{false};
  std::atomic<bool> synced{false};
  std::thread reader([&] {
    EpochManager::ReadGuard guard(mgr);
    entered = true;
    while (!release.load()) {
      std::this_thread::yield();
    }
  });
  while (!entered.load()) {
    std::this_thread::yield();
  }
  std::thread syncer([&] {
    mgr.SynchronizeFullGrace();
    synced = true;
  });
  // The syncer cannot finish while the guard is open: it needs two
  // advances past the guard's announcement and the guard blocks all but
  // (at most) one.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(synced.load());
  release = true;
  reader.join();
  syncer.join();
  EXPECT_TRUE(synced.load());
}

TEST(EpochManager, SixtyFifthGuardWaitsForAFreeSlot) {
  // The blocking fallback: once every slot is taken, Enter yields until one
  // exits. Reads then stop being wait-free, but no guard is ever lost.
  EpochManager mgr;
  std::vector<uint32_t> held;
  for (uint32_t i = 0; i < EpochManager::kSlots; ++i) {
    held.push_back(mgr.Enter());
  }
  EXPECT_EQ(std::set<uint32_t>(held.begin(), held.end()).size(),
            EpochManager::kSlots);
  std::atomic<bool> entered{false};
  std::thread late([&] {
    const uint32_t slot = mgr.Enter();
    entered = true;
    mgr.Exit(slot);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(entered.load());
  // The waiting thread holds no slot: all 64 announce the current epoch, so
  // it advances once, and then no further.
  EXPECT_TRUE(mgr.TryAdvance());
  EXPECT_FALSE(mgr.TryAdvance());
  EXPECT_FALSE(entered.load());
  mgr.Exit(held.back());
  held.pop_back();
  late.join();
  EXPECT_TRUE(entered.load());
  for (const uint32_t slot : held) {
    mgr.Exit(slot);
  }
  EXPECT_TRUE(mgr.TryAdvance());
}

PhKey K(uint64_t a, uint64_t b) { return PhKey{a, b}; }

TEST(EpochReclaim, RetiredNodeStaysIntactWhileGuardOpen) {
  EpochManager epochs;
  PhTree tree(2);
  tree.EnableMvcc(&epochs);
  for (uint64_t i = 0; i < 32; ++i) {
    tree.Insert(K(i << 32, i << 16), i);
  }
  const NodeArena* arena = tree.arena();
  ASSERT_NE(arena, nullptr);

  EpochManager::ReadGuard guard(epochs);
  const uint64_t e0 = epochs.epoch();
  const size_t pre_retired = arena->retired_nodes();
  const uint64_t pre_reclaimed = arena->reclaimed_nodes_total();
  // Snapshot the root, then force a copy-on-write of it: a key whose top
  // address bit differs from every setup key (those all have bit 63
  // clear) adds an entry to the root node itself, so the root is cloned,
  // republished, and the old root retired — not freed, our guard is open.
  const Node* old_root = tree.root();
  ASSERT_NE(old_root, nullptr);
  ASSERT_TRUE(tree.Insert(K(uint64_t{1} << 63, 21), 1));
  EXPECT_NE(tree.root(), old_root);
  EXPECT_GE(arena->retired_nodes(), 1u);
  EXPECT_GT(arena->RetiredBytes(), 0u);
  // ASan canary, before any later allocation could recycle the block: a
  // root reclaimed by the insert's own Reclaim pass is poisoned here.
  EXPECT_EQ(old_root->postfix_len(), kBitWidth - 1);

  // Churn hard: every mutation tries to reclaim, but while this guard is
  // open the epoch advances at most once past our announcement, so no
  // node retired after we entered can complete its deferred free (only
  // pre-guard retirees, already unreachable to us, may still drain).
  for (uint64_t i = 0; i < 200; ++i) {
    tree.InsertOrAssign(K(i * 2 + 1, i * 2 + 1), i);
    if (i % 3 == 0) {
      tree.Erase(K(i * 2 + 1, i * 2 + 1));
    }
  }
  EXPECT_LE(epochs.epoch(), e0 + 1);
  EXPECT_LE(arena->reclaimed_nodes_total() - pre_reclaimed, pre_retired);
  // ASan canary: the snapshot root must still be fully readable. A
  // premature free would have poisoned the block and these loads abort.
  EXPECT_EQ(old_root->postfix_len(), kBitWidth - 1);
  EXPECT_GE(old_root->num_entries(), 1u);
}

TEST(EpochReclaim, DeferredFreeCompletesAfterGuardExit) {
  EpochManager epochs;
  PhTree tree(2);
  tree.EnableMvcc(&epochs);
  for (uint64_t i = 0; i < 64; ++i) {
    tree.Insert(K(i * 0x9e3779b97f4a7c15ULL, i), i);
  }
  const NodeArena* arena = tree.arena();
  {
    EpochManager::ReadGuard guard(epochs);
    tree.Insert(K(7, 7), 7);
    ASSERT_GE(arena->retired_nodes(), 1u);
  }
  // Guard closed: each further mutation's Reclaim can advance the epoch
  // once, so after a few of them every earlier retiree is two epochs old
  // and gets its deferred DeleteNode.
  const uint64_t before = arena->reclaimed_nodes_total();
  for (uint64_t i = 0; i < 8; ++i) {
    tree.Insert(K(i + 1000, i + 1000), i);
  }
  EXPECT_GT(arena->reclaimed_nodes_total(), before);
  // Quiescent bookkeeping stays exact with the retired queue counted in.
  EXPECT_EQ(ValidatePhTree(tree), "");
  const PhTreeStats stats = tree.ComputeStats();
  EXPECT_EQ(stats.memory_bytes + stats.arena_retired_bytes,
            stats.arena_live_bytes);
  EXPECT_GE(stats.epoch, 1u);
  EXPECT_GT(stats.arena_reclaimed_nodes, 0u);
}

TEST(EpochReclaim, ClearRetiresWholeTreeUnderGuard) {
  EpochManager epochs;
  PhTree tree(2);
  tree.EnableMvcc(&epochs);
  for (uint64_t i = 0; i < 128; ++i) {
    tree.Insert(K(i * 0x2545f4914f6cdd1dULL, ~i), i);
  }
  const size_t reachable = tree.ComputeStats().n_nodes;
  EpochManager::ReadGuard guard(epochs);
  const Node* old_root = tree.root();
  tree.Clear();
  EXPECT_EQ(tree.size(), 0u);
  EXPECT_EQ(tree.root(), nullptr);
  // Every reachable node of the old tree is retired, none freed (their
  // retire stamp is current, and our guard pins the epoch): a reader
  // mid-traversal keeps a consistent snapshot.
  EXPECT_GE(tree.arena()->retired_nodes(), reachable);
  EXPECT_EQ(old_root->postfix_len(), kBitWidth - 1);  // ASan canary
}

TEST(EpochReclaim, FaultSweepCoversCowAllocationSites) {
  testlib::FaultSweepOptions opts;
  opts.mvcc = true;
  opts.commands.dim = 2;
  opts.ops = 600;
  opts.seed = 20260809;
  opts.deep_every = 64;
  const testlib::FaultSweepReport report = testlib::RunFaultSweep(opts);
  EXPECT_TRUE(report.ok()) << report.failure;
  EXPECT_GT(report.injected_failures, 0u);
}

/// True iff the subtree under `node` holds an LHC node with a sub entry
/// and an infix: in key-only mode its 32-bit sub slots start the stream,
/// right ahead of the infix.
bool HasLhcNodeWithSubAndInfix(const PhTree& tree, const Node* node) {
  if (node->repr() == Node::Repr::kLhc && node->num_subs() > 0 &&
      node->infix_len() > 0) {
    return true;
  }
  for (uint64_t ord = node->FirstOrdinal(); ord != Node::kNoOrdinal;
       ord = node->NextOrdinal(ord)) {
    if (node->OrdinalIsSub(ord) &&
        HasLhcNodeWithSubAndInfix(
            tree, tree.arena()->NodeAt(node->OrdinalSub(ord)))) {
      return true;
    }
  }
  return false;
}

/// The keys of a random `fill` share of the cells of the dense grid
/// [0, 2^(12/dim))^dim (4,096 cells at dim 2, 3, 6), in random order.
std::vector<PhKey> DenseGridKeys(uint32_t dim, double fill, Rng& rng) {
  const uint32_t side_bits = 12 / dim;
  std::vector<PhKey> keys;
  for (uint64_t cell = 0; cell < (uint64_t{1} << (side_bits * dim));
       ++cell) {
    if (rng.NextBool(fill)) {
      PhKey key(dim);
      for (uint32_t d = 0; d < dim; ++d) {
        key[d] = (cell >> (d * side_bits)) & LowMask(side_bits);
      }
      keys.push_back(std::move(key));
    }
  }
  for (size_t i = keys.size(); i > 1; --i) {
    std::swap(keys[i - 1], keys[rng.NextBounded(i)]);
  }
  return keys;
}

// The two mutation policies — plain, and MVCC — run the same edits and
// must build the same tree, not just hold the same entries: one seeded
// stream (a dense grid prefill, then inserts, erases and updates) drives
// a plain tree and an MVCC tree in both value modes. Every op must report
// the same outcome and make the same allocations: a never-armed
// FaultInjector counts each tree's hits of both allocation sites. Every
// 500 ops the structural statistics must agree exactly.
TEST(PolicyParity, InPlaceAndCopyOnWriteBuildTheSameTree) {
  FaultInjector injector;  // never armed: it only counts allocations
  SetFaultInjector(&injector);
  struct Uninstall {
    ~Uninstall() { SetFaultInjector(nullptr); }
  } uninstall;
  const auto allocs = [&injector] {
    return std::pair{injector.site_hits(FaultSite::kArenaNodeAlloc),
                     injector.site_hits(FaultSite::kWordAlloc)};
  };
  bool saw_key_only_lhc_sub = false;
  for (const bool store_values : {true, false}) {
    for (const uint32_t dim : {2u, 3u, 6u}) {
      for (const uint32_t grid_bits : {4u, 8u, 20u, 64u}) {
        SCOPED_TRACE(testing::Message() << "store_values=" << store_values
                                        << " dim=" << dim
                                        << " grid_bits=" << grid_bits);
        const uint64_t mask =
            grid_bits == 64 ? ~uint64_t{0} : (uint64_t{1} << grid_bits) - 1;
        Rng rng(dim * 100 + grid_bits);
        const auto random_key = [&] {
          PhKey key(dim);
          for (auto& v : key) {
            v = rng.NextU64() & mask;
          }
          return key;
        };
        const PhTreeConfig config{store_values};
        EpochManager epochs;
        PhTree plain(dim, config);
        PhTree mvcc(dim, config);
        mvcc.EnableMvcc(&epochs);
        // Runs `op` on the plain tree, then on the MVCC tree, and checks
        // that both return the same and hit each allocation site equally
        // (op 0 is the prefill).
        const auto both = [&](uint64_t at, const auto& op) {
          const auto before = allocs();
          const auto out = op(plain);
          const auto mid = allocs();
          EXPECT_EQ(out, op(mvcc)) << "op " << at;
          const auto after = allocs();
          EXPECT_EQ(mid.first - before.first, after.first - mid.first)
              << "kArenaNodeAlloc hits, op " << at;
          EXPECT_EQ(mid.second - before.second, after.second - mid.second)
              << "kWordAlloc hits, op " << at;
          return out;
        };
        std::vector<PhKey> live = DenseGridKeys(dim, 0.2, rng);
        for (const PhKey& key : live) {
          ASSERT_TRUE(both(0, [&](PhTree& t) { return t.Insert(key, 0); }));
          ASSERT_FALSE(::testing::Test::HasFailure());
        }
        if (!store_values) {
          saw_key_only_lhc_sub |=
              HasLhcNodeWithSubAndInfix(plain, plain.root());
        }
        for (uint64_t op = 1; op <= 3000; ++op) {
          const uint64_t kind = rng.NextBounded(10);
          // Three in four ops target a live key; a random key may be live
          // too on the small grids, so its index is looked up.
          PhKey key;
          size_t pick;
          if (!live.empty() && rng.NextBounded(4) != 0) {
            pick = rng.NextBounded(live.size());
            key = live[pick];
          } else {
            key = random_key();
            pick = std::find(live.begin(), live.end(), key) - live.begin();
          }
          if (kind < 4) {
            if (both(op, [&](PhTree& t) { return t.Insert(key, op); })) {
              live.push_back(key);
            }
          } else if (kind < 6) {
            if (both(op, [&](PhTree& t) { return t.Erase(key); })) {
              live[pick] = live.back();
              live.pop_back();
            }
          } else {
            // Mostly short moves (the in-node move), some teleports.
            PhKey to = key;
            if (rng.NextBounded(4) == 0) {
              to = random_key();
            } else {
              to[rng.NextBounded(dim)] ^= rng.NextBounded(8) & mask;
            }
            if (both(op, [&](PhTree& t) { return t.Update(key, to); }) ==
                UpdateOutcome::kMoved) {
              live[pick] = to;
            }
          }
          if (::testing::Test::HasFailure()) {
            FAIL() << "op " << op;
          }
          if (op % 500 == 0) {
            const PhTreeStats a = plain.ComputeStats();
            const PhTreeStats b = mvcc.ComputeStats();
            ASSERT_EQ(a.n_entries, b.n_entries) << "op " << op;
            ASSERT_EQ(a.n_nodes, b.n_nodes) << "op " << op;
            ASSERT_EQ(a.n_lhc_nodes, b.n_lhc_nodes) << "op " << op;
            ASSERT_EQ(a.n_bhc_nodes, b.n_bhc_nodes) << "op " << op;
            ASSERT_EQ(a.memory_bytes, b.memory_bytes) << "op " << op;
            ASSERT_EQ(a.sum_node_depth, b.sum_node_depth) << "op " << op;
          }
        }
        // Both policies take the same path for every move.
        EXPECT_EQ(plain.update_stats().fast_path,
                  mvcc.update_stats().fast_path);
        EXPECT_EQ(plain.update_stats().fallback, mvcc.update_stats().fallback);
        EXPECT_EQ(ValidatePhTree(plain), "");
        EXPECT_EQ(ValidatePhTree(mvcc), "");
      }
    }
  }
  // A key-only LHC node with a sub keeps its 32-bit child slots at the
  // stream head, before its infix: the prefill must keep producing one, or
  // the publication into those slots goes untested here.
  EXPECT_TRUE(saw_key_only_lhc_sub);
}

TEST(EpochReclaim, SyncLoadSwapsUnderLockFreeReaders) {
  const std::string path = testing::TempDir() + "/epoch_load_swap.pht";
  PhTreeSync tree(2);
  for (uint64_t i = 0; i < 512; ++i) {
    tree.Insert(K(i << 40, i << 20), i);
  }
  ASSERT_TRUE(tree.Save(path).ok());
  std::atomic<bool> stop{false};
  std::atomic<bool> failed{false};
  std::vector<std::thread> readers;
  for (int t = 0; t < 2; ++t) {
    readers.emplace_back([&, t] {
      uint64_t x = 12345 + static_cast<uint64_t>(t);
      while (!stop.load()) {
        x = x * 6364136223846793005ULL + 1442695040888963407ULL;
        const uint64_t i = (x >> 33) % 512;
        // Every saved key must be present in every published tree: the
        // churn below only touches odd low-bit keys and Load restores the
        // same content.
        if (tree.Find(K(i << 40, i << 20)) != std::optional<uint64_t>(i)) {
          failed = true;
        }
      }
    });
  }
  for (int round = 0; round < 5; ++round) {
    for (uint64_t i = 0; i < 200; ++i) {
      tree.InsertOrAssign(K(i * 2 + 1, i * 2 + 1), i);
    }
    ASSERT_TRUE(tree.Load(path).ok());
    EXPECT_EQ(tree.size(), 512u);
  }
  stop = true;
  for (auto& th : readers) {
    th.join();
  }
  EXPECT_FALSE(failed.load());
  std::remove(path.c_str());
}

}  // namespace
}  // namespace phtree
