// Node-level behaviour: LHC/BHC representation choice and switching
// (paper Sect. 3.2), every edit of each layout (each writes a new block and
// leaves its source untouched), space bookkeeping, and the paper's space
// cases (Sect. 3.4).
#include "phtree/node.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <vector>

#include "common/fault.h"
#include "common/rng.h"
#include "phtree/arena.h"
#include "phtree/phtree.h"
#include "phtree/stats.h"
#include "phtree/validate.h"

namespace phtree {
namespace {

PhKey Key2(uint64_t x, uint64_t y) { return PhKey{x, y}; }

constexpr Node::Repr kLhc = Node::Repr::kLhc;
constexpr Node::Repr kBhc = Node::Repr::kBhc;

/// A standalone node built through its own arena and edited the way the
/// tree edits one: every edit writes the edited node into a new block, and
/// the old block is freed. Each edit copies the source block, then runs
/// twice: once with its allocation failing and once for real. Neither run
/// may change a bit of the source. After every edit the node must own
/// exactly its granted block, and that block must be the arena's only one.
class ArenaNode {
 public:
  ArenaNode(uint32_t dim, uint32_t infix_len, uint32_t postfix_len,
            bool store_values = true, const PhKey& infix_key = {}) {
    const PhKey key = infix_key.empty() ? PhKey(dim, 0) : infix_key;
    ref_ = Node::TryBuild(arena_, dim, infix_len, postfix_len, store_values,
                          key, {}, nullptr);
  }

  Node* operator->() { return ref_.ptr; }
  Node* get() { return ref_.ptr; }

  void InsertPostfix(uint64_t addr, std::span<const uint64_t> key,
                     uint64_t value) {
    Apply(Node::EntryDelta::InsertPostfix(addr, key, value));
  }
  /// Adds a sub entry the way the tree does: a postfix lands at the free
  /// address `addr`, and a collision turns it into a sub.
  void InsertSub(uint64_t addr, NodeHandle child) {
    const PhKey key(ref_.ptr->dim(), 0);
    InsertPostfix(addr, key, 0);
    ReplaceEntryWithSub(addr, child);
  }
  void RemoveEntry(uint64_t addr) { Apply(Node::EntryDelta::Remove(addr)); }
  void ReplaceEntryWithSub(uint64_t addr, NodeHandle child) {
    Apply(Node::EntryDelta::ToSub(addr, child));
  }
  void ReplaceSubWithPostfix(uint64_t addr, std::span<const uint64_t> key,
                             uint64_t value) {
    Apply(Node::EntryDelta::ToPostfix(addr, key, value));
  }
  void Move(uint64_t addr, uint64_t new_addr, std::span<const uint64_t> key,
            uint64_t value) {
    Apply(Node::EntryDelta::Move(addr, new_addr, key, value));
  }
  void SetInfix(uint32_t infix_len, std::span<const uint64_t> key) {
    Apply(Node::EntryDelta::Infix(infix_len, key));
  }

 private:
  void Apply(const Node::EntryDelta& delta) {
    const Node* source = ref_.ptr;
    const auto* block = reinterpret_cast<const uint64_t*>(source);
    const std::vector<uint64_t> copy(block, block + source->BlockWords());
    const auto untouched = [&] {
      return std::equal(copy.begin(), copy.end(), block);
    };
    FaultInjector injector;
    SetFaultInjector(&injector);
    injector.ArmCountdown(FaultSite::kWordAlloc, 1);
    const NodeRef failed = source->TryEdit(arena_, delta);
    SetFaultInjector(nullptr);
    EXPECT_FALSE(failed);
    EXPECT_TRUE(untouched()) << "a failed edit wrote its source";
    EXPECT_EQ(arena_.LiveBytes(), copy.size() * sizeof(uint64_t));

    const NodeRef after = source->TryEdit(arena_, delta);
    ASSERT_TRUE(after);
    EXPECT_NE(after.ptr, ref_.ptr) << "the edit returned its source";
    EXPECT_TRUE(untouched()) << "an edit wrote its source";
    arena_.DeleteNode(ref_);
    ref_ = after;
    EXPECT_TRUE(arena_.IsGrantedBlock(ref_));
    EXPECT_EQ(arena_.LiveBytes(), ref_.ptr->MemoryBytes());
  }

  NodeArena arena_;
  NodeRef ref_;
};

/// The expected content of a standalone node: per address, a sub handle or
/// a postfix key and payload.
struct NodeModel {
  struct Entry {
    bool sub = false;
    uint64_t payload = 0;  ///< value, or the handle of a sub entry
    PhKey key;             ///< postfix source (postfix entries)
  };
  std::map<uint64_t, Entry> entries;
};

/// The node holds exactly `model` (payloads read as 0 in key-only mode)
/// and sits in the smallest legal representation.
void ExpectNodeMatches(Node* node, const NodeModel& model, bool store_values,
                       const char* step) {
  SCOPED_TRACE(step);
  ASSERT_EQ(node->num_entries(), model.entries.size());
  uint32_t subs = 0;
  for (const auto& [addr, e] : model.entries) {
    const uint64_t ord = node->FindOrdinal(addr);
    ASSERT_NE(ord, Node::kNoOrdinal) << "addr " << addr;
    ASSERT_EQ(node->OrdinalIsSub(ord), e.sub) << "addr " << addr;
    if (e.sub) {
      ++subs;
      EXPECT_EQ(node->OrdinalSub(ord), e.payload) << "addr " << addr;
      continue;
    }
    EXPECT_EQ(node->OrdinalPayload(ord), store_values ? e.payload : 0)
        << "addr " << addr;
    EXPECT_EQ(node->PostfixDivergence(ord, e.key), -1) << "addr " << addr;
  }
  EXPECT_EQ(node->num_subs(), subs);
  uint64_t best = node->ReprBits(kLhc);
  if (subs == 0) {
    best = std::min(best, node->ReprBits(kBhc));
  }
  EXPECT_EQ(node->CurrentReprBits(), best);
}

/// A postfix key for hypercube address `addr` of a node with postfix
/// length 1: bit 0 of every dimension varies with `salt`.
PhKey PostfixKey(uint32_t dim, uint64_t addr, uint64_t salt) {
  PhKey key(dim, 0);
  for (uint32_t d = 0; d < dim; ++d) {
    key[d] = ((addr + salt) >> d) & 1;
  }
  return key;
}

TEST(NodeRepresentation, DenseLowDimLeafNodesUseBhc) {
  // k=2: filling all 4 slots of a leaf node must leave LHC (paper: the
  // bottom node of Fig. 2 "would be stored in HC representation"; BHC, the
  // hypercube layout of a sub-free node, holds it here).
  PhTree tree(2);
  for (uint64_t x = 0; x < 2; ++x) {
    for (uint64_t y = 0; y < 2; ++y) {
      tree.Insert(Key2(x, y), x * 2 + y);
    }
  }
  const PhTreeStats stats = tree.ComputeStats();
  EXPECT_GE(stats.n_bhc_nodes, 1u);
  EXPECT_EQ(ValidatePhTree(tree), "");
}

TEST(NodeRepresentation, SparseHighDimNodesUseLhc) {
  // k=16 with 2 entries: BHC would need a 2^16-bit bitmap; must stay LHC.
  PhTree tree(16);
  PhKey a(16, 123456), b(16, 123456);
  b[15] ^= 1;
  tree.Insert(a, 1);
  tree.Insert(b, 2);
  const PhTreeStats stats = tree.ComputeStats();
  EXPECT_EQ(stats.n_lhc_nodes, stats.n_nodes);
}

TEST(NodeRepresentation, SwitchesBackToLhcOnDeletion) {
  PhTree tree(2);
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

TEST(NodeRepresentation, HcNeverUsedAboveMaxDim) {
  // Above kMaxHcDim every node is LHC, however dense its addresses.
  PhTree tree(kMaxHcDim + 4);
  Rng rng(6);
  for (int i = 0; i < 100; ++i) {
    PhKey key(kMaxHcDim + 4);
    for (auto& v : key) {
      v = rng.NextBounded(2);  // boolean data: maximally dense addresses
    }
    tree.InsertOrAssign(key, i);
  }
  const PhTreeStats stats = tree.ComputeStats();
  EXPECT_EQ(stats.n_bhc_nodes, 0u);
  EXPECT_EQ(ValidatePhTree(tree), "");
}

TEST(NodeSpace, SmallestRepresentationWinsExactly) {
  // Whitebox size check on a standalone node.
  ArenaNode node(2, 0, 3);  // k=2, postfix 3 bits -> stride 6 bits
  PhKey key{0, 0};
  // The layouts differ only in their index. 1 entry: LHC's flag and 2-bit
  // address (3 bits) are below BHC's 4-bit bitmap -> LHC.
  node.InsertPostfix(0, key, 0);
  EXPECT_FALSE(node->is_bhc());
  EXPECT_EQ(node->ReprBits(kBhc) - node->ReprBits(kLhc), 1u);
  // Fill all 4 slots: LHC pays a flag and k=2 address bits per entry
  // (12 bits), BHC still 4 bitmap bits -> BHC, 8 bits smaller.
  key = PhKey{1, 0};
  node.InsertPostfix(2, key, 0);
  key = PhKey{0, 1};
  node.InsertPostfix(1, key, 0);
  key = PhKey{1, 1};
  node.InsertPostfix(3, key, 0);
  EXPECT_TRUE(node->is_bhc());
  EXPECT_EQ(node->ReprBits(kLhc) - node->ReprBits(kBhc), 8u);
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
  EXPECT_EQ(stats.n_lhc_nodes + stats.n_bhc_nodes, stats.n_nodes);
  EXPECT_EQ(stats.lhc_node_bytes + stats.bhc_node_bytes, stats.memory_bytes);
  EXPECT_EQ(stats.n_hc_nodes, 0u);
  EXPECT_EQ(stats.hc_node_bytes, 0u);
  EXPECT_GT(stats.memory_bytes, 0u);
  EXPECT_GE(stats.max_depth, 1u);
  EXPECT_LE(stats.max_depth, 64u);
}

/// A key-only tree over a seeded random `fill` share of the cells of the
/// grid [0, 2^side_bits)^dim, inserted in cell order.
PhTree FilledKeyOnlyGrid(uint32_t dim, uint32_t side_bits, double fill,
                         uint64_t seed) {
  PhTree tree(dim, PhTreeConfig{/*store_values=*/false});
  Rng rng(seed);
  for (uint64_t cell = 0; cell < (uint64_t{1} << (side_bits * dim));
       ++cell) {
    if (rng.NextBool(fill)) {
      PhKey key(dim);
      for (uint32_t d = 0; d < dim; ++d) {
        key[d] = (cell >> (d * side_bits)) & LowMask(side_bits);
      }
      EXPECT_TRUE(tree.Insert(key, 0));
    }
  }
  return tree;
}

/// Bytes of `node`'s subtree, summed node by node as the 16-byte header
/// plus the stream's words, rounded up to whole 16-byte granules: the
/// exact-fit grant, restated apart from SlabWordPool::GrantWords.
uint64_t GranuleBytes(const PhTree& tree, const Node* node) {
  const uint64_t stream_bytes = (node->CurrentReprBits() + 63) / 64 * 8;
  uint64_t bytes = (Node::kHeaderWords * 8 + stream_bytes + 15) / 16 * 16;
  for (uint64_t ord = node->FirstOrdinal(); ord != Node::kNoOrdinal;
       ord = node->NextOrdinal(ord)) {
    if (node->OrdinalIsSub(ord)) {
      bytes += GranuleBytes(tree, tree.arena()->NodeAt(node->OrdinalSub(ord)));
    }
  }
  return bytes;
}

TEST(NodeSpace, FilledKeyOnlyGridsKeepTheirBytesWithoutHc) {
  // Key-only grids a fifth full are where the retired dense HC layout
  // (DESIGN.md §2) was picked: with it, these two trees held 853 and 806 HC
  // nodes, every one with a sub. Their LHC nodes' exact-fit blocks sum to
  // the pinned bytes (1,093,856 and 799,232 in power-of-two blocks), and
  // so does an independent node-by-node sum of whole granules.
  const PhTree grid2d = FilledKeyOnlyGrid(2, 9, 0.2, 20);
  const PhTree grid3d = FilledKeyOnlyGrid(3, 6, 0.2, 30);
  EXPECT_EQ(grid2d.size(), 52483u);
  EXPECT_EQ(grid3d.size(), 52669u);
  EXPECT_EQ(grid2d.ComputeStats().memory_bytes, 1036160u);
  EXPECT_EQ(grid3d.ComputeStats().memory_bytes, 748000u);
  EXPECT_EQ(GranuleBytes(grid2d, grid2d.root()), 1036160u);
  EXPECT_EQ(GranuleBytes(grid3d, grid3d.root()), 748000u);
  EXPECT_EQ(ValidatePhTreeDeep(grid2d), "");
  EXPECT_EQ(ValidatePhTreeDeep(grid3d), "");
}

TEST(NodeRepresentation, BhcPromotionAndDemotionAtSwitchBoundary) {
  // Whitebox: with k=2, postfix 3 bits and no infix, the exact sizes are
  // LHC = 73n bits and BHC = 70n + 4 bits, so the smaller-wins rule places
  // the boundary between n=1 (LHC) and n=2 (BHC). Walk the node across the
  // boundary in both directions and check that the chosen representation
  // is the argmin after every single mutation.
  ArenaNode node(2, 0, 3);
  const uint64_t addrs[4] = {0, 2, 1, 3};
  const PhKey keys[4] = {{0, 0}, {1, 0}, {0, 1}, {1, 1}};
  for (int i = 0; i < 4; ++i) {
    node.InsertPostfix(addrs[i], keys[i], 0);
    const uint64_t lhc = node->ReprBits(kLhc);
    const uint64_t bhc = node->ReprBits(kBhc);
    EXPECT_EQ(node->is_bhc(), bhc < lhc) << "n=" << i + 1;
    EXPECT_EQ(node->CurrentReprBits(), std::min(lhc, bhc)) << "n=" << i + 1;
  }
  EXPECT_TRUE(node->is_bhc());
  // Demote by deletion: at n=1 LHC is strictly smaller again.
  for (int i = 3; i >= 1; --i) {
    node.RemoveEntry(addrs[i]);
  }
  EXPECT_EQ(node->num_entries(), 1u);
  EXPECT_FALSE(node->is_bhc());
  EXPECT_LT(node->ReprBits(kLhc), node->ReprBits(kBhc));
}

TEST(NodeRepresentation, BhcNodeGainingASubLeavesBhc) {
  // BHC has no is_sub bitmap, so a packed leaf that gains a sub-node entry
  // must convert, whatever the sizes say.
  ArenaNode node(2, 0, 3);
  const PhKey keys[2] = {{0, 0}, {1, 0}};
  const uint64_t addrs[2] = {0, 2};
  for (int i = 0; i < 2; ++i) {
    node.InsertPostfix(addrs[i], keys[i], 0);
  }
  ASSERT_EQ(node->num_subs(), 0u);
  ASSERT_TRUE(node->is_bhc());
  node.InsertSub(3, NodeHandle{7});
  EXPECT_FALSE(node->is_bhc());
  EXPECT_EQ(node->num_subs(), 1u);
  ASSERT_NE(node->FindOrdinal(3), Node::kNoOrdinal);
  EXPECT_EQ(node->OrdinalSub(node->FindOrdinal(3)), NodeHandle{7});
}

TEST(NodeRepresentation, TreeChurnAcrossBoundaryStaysValid) {
  // Tree-level churn around dense 2x2 leaves: every insert/erase crosses
  // promotion/demotion boundaries somewhere in the tree. ValidatePhTree
  // re-derives the representation rule for every node, so a single stale
  // node fails the walk.
  PhTree tree(2);
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
      ASSERT_EQ(ValidatePhTree(tree), "") << "op=" << op;
    }
  }
  EXPECT_EQ(tree.size(), live.size());
  ASSERT_EQ(ValidatePhTree(tree), "");
}

// A full node crosses between the two layouts: it is BHC while sub-free
// and LHC once it holds a sub, since BHC has no is_sub flags. The two tests
// below build such nodes directly and drive every edit on both sides:
// postfix and sub inserts and removes, postfix <-> sub swaps, in-node
// moves and PublishSubAt.
// ArenaNode checks that each edit writes a new block.

TEST(NodeWhitebox, ValueModeFullNodeEdits) {
  // k=6, postfix_len 1: sub-free, a full node is BHC (a 64-bit bitmap
  // against 448 LHC flag and address bits); with a sub it is LHC.
  constexpr uint32_t kDim = 6;
  ArenaNode node(kDim, 0, 1);
  NodeModel model;
  for (uint64_t a = 0; a < 64; ++a) {
    NodeModel::Entry e{false, 1000 + a, PostfixKey(kDim, a, 0)};
    node.InsertPostfix(a, e.key, e.payload);
    model.entries[a] = e;
  }
  ExpectNodeMatches(node.get(), model, true, "64 postfixes");
  ASSERT_TRUE(node->is_bhc());

  // BHC -> LHC: every payload keeps its postfix rank.
  node.ReplaceEntryWithSub(5, NodeHandle{501});
  model.entries[5] = {true, 501, {}};
  ExpectNodeMatches(node.get(), model, true, "first sub");
  ASSERT_EQ(node->repr(), kLhc);

  // From here on the node always holds a sub and stays LHC.
  for (const uint64_t a : {9, 13}) {
    node.ReplaceEntryWithSub(a, static_cast<NodeHandle>(500 + a));
    model.entries[a] = {true, 500 + a, {}};
  }
  ExpectNodeMatches(node.get(), model, true, "three subs");
  node->PublishSubAt(node->FindOrdinal(9), NodeHandle{777});
  model.entries[9].payload = 777;
  ExpectNodeMatches(node.get(), model, true, "PublishSubAt");

  const PhKey back = PostfixKey(kDim, 9, 1);
  node.ReplaceSubWithPostfix(9, back, 4242);
  model.entries[9] = {false, 4242, back};
  ExpectNodeMatches(node.get(), model, true, "sub -> postfix");

  node.RemoveEntry(20);  // a postfix
  model.entries.erase(20);
  node.RemoveEntry(13);  // a sub
  model.entries.erase(13);
  ExpectNodeMatches(node.get(), model, true, "removes");
  ASSERT_EQ(node->repr(), kLhc);

  const PhKey moved = PostfixKey(kDim, 20, 3);
  node.Move(30, 20, moved, 3030);  // to a free slot
  model.entries.erase(30);
  model.entries[20] = {false, 3030, moved};
  const PhKey rewritten = PostfixKey(kDim, 31, 1);
  node.Move(31, 31, rewritten, 3131);  // in its own slot
  model.entries[31] = {false, 3131, rewritten};
  ExpectNodeMatches(node.get(), model, true, "moves");
  ASSERT_EQ(node->repr(), kLhc);

  const PhKey again = PostfixKey(kDim, 30, 2);
  node.InsertPostfix(30, again, 99);
  model.entries[30] = {false, 99, again};
  node.InsertSub(13, NodeHandle{613});
  model.entries[13] = {true, 613, {}};
  ExpectNodeMatches(node.get(), model, true, "re-inserts");
  ASSERT_EQ(node->repr(), kLhc);
}

TEST(NodeWhitebox, KeyOnlyFullNodeEdits) {
  // Key-only, k=3, postfix_len 1: sub-free, a node of 8 entries is BHC; with
  // a sub it is LHC, its sub handles in 32-bit slots that start the stream.
  constexpr uint32_t kDim = 3;
  ArenaNode node(kDim, 0, 1, /*store_values=*/false);
  NodeModel model;
  for (uint64_t a = 0; a < 8; ++a) {
    NodeModel::Entry e{false, 0, PostfixKey(kDim, a, 0)};
    node.InsertPostfix(a, e.key, 0);
    model.entries[a] = e;
  }
  ExpectNodeMatches(node.get(), model, false, "8 postfixes");
  ASSERT_TRUE(node->is_bhc());

  node.ReplaceEntryWithSub(2, NodeHandle{302});
  model.entries[2] = {true, 302, {}};
  ExpectNodeMatches(node.get(), model, false, "first sub");
  ASSERT_EQ(node->repr(), kLhc);

  node.ReplaceEntryWithSub(5, NodeHandle{305});
  model.entries[5] = {true, 305, {}};
  node->PublishSubAt(node->FindOrdinal(5), NodeHandle{355});
  model.entries[5].payload = 355;
  ExpectNodeMatches(node.get(), model, false, "second sub");

  const PhKey back = PostfixKey(kDim, 5, 1);
  node.ReplaceSubWithPostfix(5, back, 0);
  model.entries[5] = {false, 0, back};
  ExpectNodeMatches(node.get(), model, false, "sub -> postfix");

  node.RemoveEntry(7);  // a postfix
  model.entries.erase(7);
  node.InsertSub(7, NodeHandle{307});
  model.entries[7] = {true, 307, {}};
  ExpectNodeMatches(node.get(), model, false, "sub insert");
  node.RemoveEntry(7);  // a sub
  model.entries.erase(7);
  const PhKey moved = PostfixKey(kDim, 7, 1);
  node.Move(6, 7, moved, 0);
  model.entries.erase(6);
  model.entries[7] = {false, 0, moved};
  ExpectNodeMatches(node.get(), model, false, "move");
  const PhKey last = PostfixKey(kDim, 6, 2);
  node.InsertPostfix(6, last, 0);
  model.entries[6] = {false, 0, last};
  ExpectNodeMatches(node.get(), model, false, "postfix insert");
  ASSERT_EQ(node->repr(), kLhc);
}

// A seeded random sequence of every edit kind against NodeModel, for
// k in {2, 3, 6, 63} in both value modes. Addresses come from a pool of at
// most 64, so small-k nodes fill up and pass between LHC and BHC as they
// fill, empty, and gain or lose subs.
TEST(NodeWhitebox, RandomEditsMatchModel) {
  constexpr uint32_t kPostfixLen = 3;
  bool seen[2] = {false, false};
  for (const uint32_t dim : {2u, 3u, 6u, 63u}) {
    for (const bool store_values : {true, false}) {
      SCOPED_TRACE(testing::Message()
                   << "dim=" << dim << " store_values=" << store_values);
      Rng rng(dim * 2 + (store_values ? 1 : 0));
      std::vector<uint64_t> pool;
      for (uint64_t a = 0; a < 64 && (dim >= 6 || a < (1u << dim)); ++a) {
        pool.push_back(dim > 6 ? rng.NextU64() & LowMask(dim) : a);
      }
      const auto random_key = [&] {
        PhKey key(dim);
        for (auto& v : key) {
          v = rng.NextU64();
        }
        return key;
      };
      PhKey infix_key = random_key();
      uint32_t infix_len = 2;
      ArenaNode node(dim, infix_len, kPostfixLen, store_values, infix_key);
      NodeModel model;
      for (int op = 0; op < 600; ++op) {
        const uint64_t addr = pool[rng.NextBounded(pool.size())];
        const auto it = model.entries.find(addr);
        const uint64_t payload = rng.NextU64();
        const PhKey key = random_key();
        const uint64_t roll = rng.NextBounded(100);
        if (it == model.entries.end()) {
          if (roll < 10) {
            node.InsertSub(addr, static_cast<NodeHandle>(payload));
            model.entries[addr] = {true, static_cast<NodeHandle>(payload), {}};
          } else {
            node.InsertPostfix(addr, key, payload);
            model.entries[addr] = {false, payload, key};
          }
        } else if (roll < 25) {
          node.RemoveEntry(addr);
          model.entries.erase(it);
        } else if (it->second.sub) {
          if (roll < 60) {
            node.ReplaceSubWithPostfix(addr, key, payload);
            it->second = {false, payload, key};
          } else {
            const auto handle = static_cast<NodeHandle>(payload);
            node->PublishSubAt(node->FindOrdinal(addr), handle);
            it->second.payload = handle;
          }
        } else if (roll < 30) {
          node.ReplaceEntryWithSub(addr, static_cast<NodeHandle>(payload));
          it->second = {true, static_cast<NodeHandle>(payload), {}};
        } else if (roll < 90) {
          // A move to a free pool address, or within the entry's slot.
          uint64_t to = pool[rng.NextBounded(pool.size())];
          if (model.entries.count(to) != 0) {
            to = addr;
          }
          node.Move(addr, to, key, payload);
          model.entries.erase(it);
          model.entries[to] = {false, payload, key};
        } else {
          infix_key = random_key();
          infix_len = static_cast<uint32_t>(rng.NextBounded(5));
          node.SetInfix(infix_len, infix_key);
        }
        ExpectNodeMatches(node.get(), model, store_values, "random edit");
        ASSERT_EQ(node->infix_len(), infix_len);
        ASSERT_EQ(node->MatchInfix(infix_key), -1);
        if (::testing::Test::HasFailure()) {
          FAIL() << "op " << op;
        }
        seen[static_cast<int>(node->repr())] = true;
      }
    }
  }
  EXPECT_TRUE(seen[static_cast<int>(Node::Repr::kLhc)]);
  EXPECT_TRUE(seen[static_cast<int>(Node::Repr::kBhc)]);
}

TEST(NodeWhitebox, InfixRoundTrip) {
  const PhKey key{0x0ABCDEF012345678ULL, 0x1122334455667788ULL,
                  0xFEDCBA9876543210ULL};
  ArenaNode node(3, 7, 20, /*store_values=*/true, key);
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
  ArenaNode node(2, 0, 33);
  PhKey key{0x1ABCDEF55ULL & LowMask(33), 0x012345678ULL & LowMask(33)};
  node.InsertPostfix(HcAddressAt(key, 33), key, 7);
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
