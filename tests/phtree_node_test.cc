// Node-level behaviour: HC/LHC representation choice and switching
// (paper Sect. 3.2), space bookkeeping, and the paper's space cases
// (Sect. 3.4).
#include "phtree/node.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "common/rng.h"
#include "phtree/arena.h"
#include "phtree/phtree.h"
#include "phtree/stats.h"
#include "phtree/validate.h"

namespace phtree {
namespace {

PhKey Key2(uint64_t x, uint64_t y) { return PhKey{x, y}; }

/// A standalone node built through its own arena and edited the way the
/// tree edits one: an edit that changes the block size moves the node, and
/// the old block is freed at once. After every edit the node must own
/// exactly its granted block, and that block must be the arena's only one.
class ArenaNode {
 public:
  ArenaNode(uint32_t dim, uint32_t infix_len, uint32_t postfix_len)
      : ref_(arena_.NewNode(dim, infix_len, postfix_len,
                            /*store_values=*/true)) {}

  Node* operator->() { return ref_.ptr; }

  void InsertPostfix(uint64_t addr, std::span<const uint64_t> key,
                     uint64_t value, const PhTreeConfig& cfg) {
    Apply(ref_.ptr->TryInsertPostfix(arena_, ref_.handle, addr, key, value,
                                     cfg));
  }
  void InsertSub(uint64_t addr, NodeHandle child, const PhTreeConfig& cfg) {
    Apply(ref_.ptr->TryInsertSub(arena_, ref_.handle, addr, child, cfg));
  }
  void RemoveEntry(uint64_t addr, const PhTreeConfig& cfg) {
    Apply(ref_.ptr->TryRemoveEntry(arena_, ref_.handle, addr, cfg));
  }

 private:
  void Apply(NodeRef after) {
    ASSERT_TRUE(after);
    if (after.ptr != ref_.ptr) {
      arena_.DeleteNode(ref_);
      ref_ = after;
    }
    EXPECT_TRUE(arena_.IsGrantedBlock(ref_));
    EXPECT_EQ(arena_.LiveBytes(), ref_.ptr->MemoryBytes());
  }

  NodeArena arena_;
  NodeRef ref_;
};

TEST(NodeRepresentation, DenseLowDimLeafNodesUseBhc) {
  // k=2: filling all 4 slots of a leaf node must leave LHC (paper: the
  // bottom node of Fig. 2 "would be stored in HC representation"; our BHC
  // packed-leaf refinement strictly beats HC on every sub-free node, so the
  // dense leaf lands there instead).
  PhTree tree(2);
  for (uint64_t x = 0; x < 2; ++x) {
    for (uint64_t y = 0; y < 2; ++y) {
      tree.Insert(Key2(x, y), x * 2 + y);
    }
  }
  const PhTreeStats stats = tree.ComputeStats();
  EXPECT_GE(stats.n_bhc_nodes, 1u);
  EXPECT_EQ(stats.n_hc_nodes, 0u);
  EXPECT_EQ(ValidatePhTree(tree), "");
}

TEST(NodeRepresentation, SparseHighDimNodesUseLhc) {
  // k=16 with 2 entries: HC would need 2^16 slots; must stay LHC.
  PhTree tree(16);
  PhKey a(16, 123456), b(16, 123456);
  b[15] ^= 1;
  tree.Insert(a, 1);
  tree.Insert(b, 2);
  const PhTreeStats stats = tree.ComputeStats();
  EXPECT_EQ(stats.n_hc_nodes, 0u);
  EXPECT_EQ(stats.n_lhc_nodes, stats.n_nodes);
}

TEST(NodeRepresentation, SwitchesBackToLhcOnDeletion) {
  PhTreeConfig cfg;  // strict switching
  PhTree tree(2, cfg);
  // Build a dense subtree in [0,2)x[0,2) under a shared prefix.
  for (uint64_t x = 0; x < 2; ++x) {
    for (uint64_t y = 0; y < 2; ++y) {
      tree.Insert(Key2(x, y), 0);
    }
  }
  PhTreeStats stats = tree.ComputeStats();
  ASSERT_GE(stats.n_bhc_nodes, 1u);
  // Erase until sparse: representation must follow the size rule again.
  tree.Erase(Key2(0, 0));
  tree.Erase(Key2(0, 1));
  EXPECT_EQ(ValidatePhTree(tree), "");
}

TEST(NodeRepresentation, HcOnlyPolicyForcesHc) {
  PhTreeConfig cfg;
  cfg.repr = NodeRepr::kHcOnly;
  PhTree tree(3, cfg);
  Rng rng(4);
  for (int i = 0; i < 200; ++i) {
    tree.Insert(PhKey{rng.NextU64(), rng.NextU64(), rng.NextU64()}, i);
  }
  const PhTreeStats stats = tree.ComputeStats();
  EXPECT_EQ(stats.n_hc_nodes, stats.n_nodes);
  EXPECT_EQ(ValidatePhTree(tree), "");
}

TEST(NodeRepresentation, LhcOnlyPolicyForcesLhc) {
  PhTreeConfig cfg;
  cfg.repr = NodeRepr::kLhcOnly;
  PhTree tree(2, cfg);
  for (uint64_t x = 0; x < 4; ++x) {
    for (uint64_t y = 0; y < 4; ++y) {
      tree.Insert(Key2(x, y), 0);
    }
  }
  const PhTreeStats stats = tree.ComputeStats();
  EXPECT_EQ(stats.n_hc_nodes, 0u);
  EXPECT_EQ(ValidatePhTree(tree), "");
}

TEST(NodeRepresentation, HcNeverUsedAboveMaxDim) {
  PhTreeConfig cfg;
  cfg.repr = NodeRepr::kHcOnly;  // even when forced
  cfg.hc_max_dim = 10;
  PhTree tree(24, cfg);
  Rng rng(6);
  for (int i = 0; i < 100; ++i) {
    PhKey key(24);
    for (auto& v : key) {
      v = rng.NextBounded(2);  // boolean data: maximally dense addresses
    }
    tree.InsertOrAssign(key, i);
  }
  const PhTreeStats stats = tree.ComputeStats();
  EXPECT_EQ(stats.n_hc_nodes, 0u);
}

TEST(NodeSpace, SmallestRepresentationWinsExactly) {
  // Whitebox size check on a standalone node.
  PhTreeConfig cfg;
  ArenaNode node(2, 0, 3);  // k=2, postfix 3 bits -> stride 6 bits
  PhKey key{0, 0};
  // 1 entry: LHC (1 payload word + 1 flag + 2 addr + 6 postfix bits) is far
  // below HC (4 slots x (64+2+6) bits) -> LHC.
  node.InsertPostfix(0, key, 0, cfg);
  EXPECT_FALSE(node->is_hc());
  EXPECT_FALSE(node->is_bhc());
  EXPECT_LT(node->LhcBits(), node->HcBits());
  // Fill all 4 slots: LHC pays k=2 address bits per entry, HC does not ->
  // HC is smaller by (k-1) bits per slot (paper Sect. 3.2). The packed leaf
  // (BHC) drops the empty payload slots and the sub bitmap on top of that,
  // so a full sub-free node lands in BHC, strictly below both.
  key = PhKey{1, 0};
  node.InsertPostfix(2, key, 0, cfg);
  key = PhKey{0, 1};
  node.InsertPostfix(1, key, 0, cfg);
  key = PhKey{1, 1};
  node.InsertPostfix(3, key, 0, cfg);
  EXPECT_TRUE(node->is_bhc());
  EXPECT_LT(node->HcBits(), node->LhcBits());
  EXPECT_LT(node->BhcBits(), node->HcBits());
  EXPECT_LT(node->BhcBits(), node->LhcBits());
}

TEST(NodeSpace, MemoryScalesWithPostfixLengthNotBitWidth) {
  // Prefix sharing (Sect. 3.4): clustered keys must take fewer bytes per
  // entry than scattered keys, because their postfixes are shorter.
  Rng rng(8);
  PhTree clustered(2);
  PhTree scattered(2);
  for (int i = 0; i < 2000; ++i) {
    // Clustered: all keys share the top ~48 bits.
    clustered.Insert(
        Key2(0xABCDEF0000ULL << 24 | (rng.NextU64() & 0xFFFF),
             0x123456789AULL << 24 | (rng.NextU64() & 0xFFFF)),
        i);
    scattered.Insert(Key2(rng.NextU64(), rng.NextU64()), i);
  }
  const auto cs = clustered.ComputeStats();
  const auto ss = scattered.ComputeStats();
  EXPECT_LT(cs.BytesPerEntry(), ss.BytesPerEntry());
}

TEST(NodeSpace, PowersOfTwoWorstCaseStillBounded) {
  // Paper Fig. 4b: powers of two create one node per entry (bad
  // entry-to-node ratio), but the ratio stays > 1 and depth <= w.
  PhTree tree(1);
  tree.Insert(PhKey{0}, 0);
  for (uint32_t b = 0; b < 64; ++b) {
    tree.Insert(PhKey{uint64_t{1} << b}, b);
  }
  const PhTreeStats stats = tree.ComputeStats();
  // 65 entries, 64 nodes: one node per entry except the root holding two
  // (paper Fig. 4b: n / n_node = 5/4 for {0,1,2,4,8}).
  EXPECT_EQ(stats.n_nodes, 64u);
  EXPECT_GT(stats.EntryToNodeRatio(), 1.0);
  EXPECT_LE(stats.max_depth, 64u);
}

TEST(NodeSpace, StatsCountsAreConsistent) {
  Rng rng(10);
  PhTree tree(3);
  size_t n = 0;
  for (int i = 0; i < 3000; ++i) {
    n += tree.Insert(PhKey{rng.NextU64() & 0xFFFFF, rng.NextU64() & 0xFFFFF,
                           rng.NextU64() & 0xFFFFF},
                     i)
             ? 1
             : 0;
  }
  const PhTreeStats stats = tree.ComputeStats();
  EXPECT_EQ(stats.n_entries, n);
  EXPECT_EQ(stats.n_postfix_entries, n);
  EXPECT_EQ(stats.n_hc_nodes + stats.n_lhc_nodes + stats.n_bhc_nodes,
            stats.n_nodes);
  EXPECT_EQ(stats.hc_node_bytes + stats.lhc_node_bytes + stats.bhc_node_bytes,
            stats.memory_bytes);
  EXPECT_GT(stats.memory_bytes, 0u);
  EXPECT_GE(stats.max_depth, 1u);
  EXPECT_LE(stats.max_depth, 64u);
}

TEST(NodeRepresentation, BhcPromotionAndDemotionAtSwitchBoundary) {
  // Whitebox: with k=2, postfix 3 bits and no infix, the exact sizes are
  // LHC = 73n bits and BHC = 70n + 4 bits, so the strict smaller-wins rule
  // places the boundary between n=1 (LHC) and n=2 (BHC). Walk the node
  // across the boundary in both directions and check that the chosen
  // representation is the argmin after every single mutation.
  PhTreeConfig cfg;  // strict: hysteresis = 1.0
  ArenaNode node(2, 0, 3);
  const uint64_t addrs[4] = {0, 2, 1, 3};
  const PhKey keys[4] = {{0, 0}, {1, 0}, {0, 1}, {1, 1}};
  for (int i = 0; i < 4; ++i) {
    node.InsertPostfix(addrs[i], keys[i], 0, cfg);
    const uint64_t best = std::min(
        {node->LhcBits(), node->BhcBits(), node->HcBits()});
    EXPECT_EQ(node->is_bhc(), node->BhcBits() < node->LhcBits() &&
                                 node->BhcBits() <= node->HcBits())
        << "n=" << i + 1;
    EXPECT_EQ(node->CurrentReprBits(), best) << "n=" << i + 1;
  }
  EXPECT_TRUE(node->is_bhc());
  // Demote by deletion: at n=1 LHC is strictly smaller again.
  for (int i = 3; i >= 1; --i) {
    node.RemoveEntry(addrs[i], cfg);
  }
  EXPECT_EQ(node->num_entries(), 1u);
  EXPECT_FALSE(node->is_bhc());
  EXPECT_LT(node->LhcBits(), node->BhcBits());
}

TEST(NodeRepresentation, HysteresisDampsOscillationAtBoundary) {
  // Alternating insert/erase exactly across the n=1 <-> n=2 boundary.
  // Strict switching flips LHC <-> BHC on every operation; a hysteresis
  // band keeps the node in LHC throughout (BHC at n=2 is only ~1.4% below
  // LHC, inside the band), at identical entry content.
  PhTreeConfig strict;
  PhTreeConfig damped;
  damped.hysteresis = 0.9;
  ArenaNode flappy(2, 0, 3);
  ArenaNode steady(2, 0, 3);
  const PhKey k0{0, 0};
  const PhKey k1{1, 1};
  flappy.InsertPostfix(0, k0, 0, strict);
  steady.InsertPostfix(0, k0, 0, damped);
  for (int round = 0; round < 8; ++round) {
    flappy.InsertPostfix(3, k1, 0, strict);
    steady.InsertPostfix(3, k1, 0, damped);
    EXPECT_TRUE(flappy->is_bhc());   // strict: promoted every round
    EXPECT_FALSE(steady->is_bhc());  // damped: stays put
    flappy.RemoveEntry(3, strict);
    steady.RemoveEntry(3, damped);
    EXPECT_FALSE(flappy->is_bhc());  // strict: demoted every round
    EXPECT_FALSE(steady->is_bhc());
  }
}

TEST(NodeRepresentation, IllegalBhcConvertsEvenInsideHysteresisBand) {
  // A BHC node that gains a sub-node entry must leave BHC unconditionally —
  // the hysteresis band never keeps an illegal representation alive.
  PhTreeConfig damped;
  damped.hysteresis = 0.5;
  ArenaNode node(2, 0, 3);
  const PhKey keys[3] = {{0, 0}, {1, 0}, {0, 1}};
  const uint64_t addrs[3] = {0, 2, 1};
  for (int i = 0; i < 3; ++i) {
    node.InsertPostfix(addrs[i], keys[i], 0, damped);
  }
  // Force the packed leaf (legal: sub-free), then attach a child.
  ASSERT_EQ(node->num_subs(), 0u);
  PhTreeConfig force_bhc = damped;
  force_bhc.repr = NodeRepr::kBhcOnly;
  node.RemoveEntry(addrs[2], force_bhc);  // any mutation re-evaluates
  ASSERT_TRUE(node->is_bhc());
  node.InsertSub(3, NodeHandle{7}, damped);
  EXPECT_FALSE(node->is_bhc());
  EXPECT_EQ(node->num_subs(), 1u);
  ASSERT_NE(node->FindOrdinal(3), Node::kNoOrdinal);
  EXPECT_EQ(node->OrdinalSub(node->FindOrdinal(3)), NodeHandle{7});
}

TEST(NodeRepresentation, TreeChurnAcrossBoundaryStaysValid) {
  // Tree-level churn around dense 2x2 leaves: every insert/erase crosses
  // promotion/demotion boundaries somewhere in the tree. ValidatePhTree
  // re-derives the representation rule (including the hysteresis band) for
  // every node, so a single stale or thrashing node fails the walk.
  for (const double h : {1.0, 0.9}) {
    PhTreeConfig cfg;
    cfg.hysteresis = h;
    PhTree tree(2, cfg);
    Rng rng(123);
    std::vector<PhKey> live;
    for (int op = 0; op < 4000; ++op) {
      if (live.empty() || rng.NextBounded(3) != 0) {
        PhKey key = Key2(rng.NextBounded(64), rng.NextBounded(64));
        if (tree.Insert(key, op)) {
          live.push_back(key);
        }
      } else {
        const size_t pick = rng.NextBounded(live.size());
        EXPECT_TRUE(tree.Erase(live[pick]));
        live[pick] = live.back();
        live.pop_back();
      }
      if (op % 500 == 0) {
        ASSERT_EQ(ValidatePhTree(tree), "") << "h=" << h << " op=" << op;
      }
    }
    EXPECT_EQ(tree.size(), live.size());
    ASSERT_EQ(ValidatePhTree(tree), "") << "h=" << h;
  }
}

TEST(NodeWhitebox, InfixRoundTrip) {
  ArenaNode node(3, 7, 20);
  PhKey key{0x0ABCDEF012345678ULL, 0x1122334455667788ULL,
            0xFEDCBA9876543210ULL};
  node->SetInfixFromKey(key);
  EXPECT_EQ(node->MatchInfix(key), -1);
  PhKey out{0, 0, 0};
  node->ReadInfixInto(out);
  for (int d = 0; d < 3; ++d) {
    const uint64_t mask = LowMask(7) << 21;  // bits [21,27]
    EXPECT_EQ(out[d] & mask, key[d] & mask);
  }
  // A mismatch in the highest infix bit reports bit index pl+il = 27.
  PhKey bad = key;
  bad[1] ^= uint64_t{1} << 27;
  EXPECT_EQ(node->MatchInfix(bad), 27);
  // A mismatch in the lowest infix bit reports bit index pl+1 = 21.
  bad = key;
  bad[2] ^= uint64_t{1} << 21;
  EXPECT_EQ(node->MatchInfix(bad), 21);
  // Bits outside the infix range are ignored.
  bad = key;
  bad[0] ^= uint64_t{1} << 20;
  bad[0] ^= uint64_t{1} << 28;
  EXPECT_EQ(node->MatchInfix(bad), -1);
}

TEST(NodeWhitebox, PostfixDivergenceFindsHighestBit) {
  PhTreeConfig cfg;
  ArenaNode node(2, 0, 33);
  PhKey key{0x1ABCDEF55ULL & LowMask(33), 0x012345678ULL & LowMask(33)};
  node.InsertPostfix(HcAddressAt(key, 33), key, 7, cfg);
  const uint64_t ord = node->FindOrdinal(HcAddressAt(key, 33));
  ASSERT_NE(ord, Node::kNoOrdinal);
  EXPECT_EQ(node->PostfixDivergence(ord, key), -1);
  PhKey other = key;
  other[1] ^= uint64_t{1} << 30;
  other[0] ^= uint64_t{1} << 5;
  EXPECT_EQ(node->PostfixDivergence(ord, other), 30);
  PhKey read{0, 0};
  node->ReadPostfixInto(ord, read);
  EXPECT_EQ(read[0], key[0] & LowMask(33));
  EXPECT_EQ(read[1], key[1] & LowMask(33));
}

}  // namespace
}  // namespace phtree
