// Tests for the z-order builder (phtree/builder.h): a tree built bottom-up
// from sorted entries equals the tree repeated Insert builds, node for
// node — the builder half of DESIGN.md invariant 5 — over the paper's
// datasets, dimensionalities and both value modes, plus the hand cases at
// the edges of the layout rule and the builder's stream checks.
#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <string>
#include <vector>

#include "common/rng.h"
#include "datasets/datasets.h"
#include "phtree/builder.h"
#include "phtree/cursor.h"
#include "phtree/phtree.h"
#include "phtree/phtree_d.h"
#include "phtree/validate.h"

namespace phtree {
namespace {

/// Compares two subtrees field by field: header, representation, block
/// size, infix, and every entry in address order — address, kind, payload
/// and postfix record, sub-nodes recursively. Handles are ignored. Returns
/// "" or the first difference.
std::string CompareNodes(const PhTree& ta, const Node* a, const PhTree& tb,
                         const Node* b, const std::string& path) {
  std::ostringstream os;
  os << "node " << path << ": ";
  if (a->dim() != b->dim() || a->infix_len() != b->infix_len() ||
      a->postfix_len() != b->postfix_len() || a->repr() != b->repr() ||
      a->num_entries() != b->num_entries() ||
      a->num_subs() != b->num_subs() || a->BlockWords() != b->BlockWords()) {
    os << "headers differ (infix " << a->infix_len() << "/" << b->infix_len()
       << ", postfix " << a->postfix_len() << "/" << b->postfix_len()
       << ", repr " << static_cast<int>(a->repr()) << "/"
       << static_cast<int>(b->repr()) << ", entries " << a->num_entries()
       << "/" << b->num_entries() << ", subs " << a->num_subs() << "/"
       << b->num_subs() << ", words " << a->BlockWords() << "/"
       << b->BlockWords() << ")";
    return os.str();
  }
  PhKey ka(a->dim(), 0);
  PhKey kb(b->dim(), 0);
  a->ReadInfixInto(ka);
  b->ReadInfixInto(kb);
  if (ka != kb) {
    return os.str() + "infixes differ";
  }
  uint64_t oa = a->FirstOrdinal();
  uint64_t ob = b->FirstOrdinal();
  for (; oa != Node::kNoOrdinal && ob != Node::kNoOrdinal;
       oa = a->NextOrdinal(oa), ob = b->NextOrdinal(ob)) {
    const uint64_t addr = a->OrdinalAddr(oa);
    if (addr != b->OrdinalAddr(ob) || a->OrdinalIsSub(oa) != b->OrdinalIsSub(ob)) {
      os << "entry at address " << addr << " differs in address or kind";
      return os.str();
    }
    if (a->OrdinalIsSub(oa)) {
      const std::string sub = CompareNodes(
          ta, ta.arena()->NodeAt(a->OrdinalSub(oa)), tb,
          tb.arena()->NodeAt(b->OrdinalSub(ob)),
          path + "/" + std::to_string(addr));
      if (!sub.empty()) {
        return sub;
      }
      continue;
    }
    std::fill(ka.begin(), ka.end(), 0);
    std::fill(kb.begin(), kb.end(), 0);
    a->ReadPostfixInto(oa, ka);
    b->ReadPostfixInto(ob, kb);
    if (ka != kb || a->OrdinalPayload(oa) != b->OrdinalPayload(ob)) {
      os << "postfix entry at address " << addr
         << " differs in record or payload";
      return os.str();
    }
  }
  if (oa != Node::kNoOrdinal || ob != Node::kNoOrdinal) {
    return os.str() + "entry enumerations differ in length";
  }
  return "";
}

/// The structural ComputeStats fields: the arena's slab and freelist
/// meters (and the epoch) depend on allocation history, not on content.
PhTreeStats Structural(PhTreeStats s) {
  s.arena_slab_bytes = 0;
  s.arena_freelist_bytes = 0;
  s.arena_retired_bytes = 0;
  s.arena_retired_nodes = 0;
  s.arena_reclaimed_nodes = 0;
  s.epoch = 0;
  return s;
}

/// Builds the same entries by Insert and by BulkLoad into an empty tree
/// and checks the two trees are equal node for node.
void ExpectBuilderMatchesInsert(const std::vector<PhEntry>& entries,
                                uint32_t dim, bool store_values,
                                const std::string& label) {
  PhTreeConfig cfg;
  cfg.store_values = store_values;
  PhTree inserted(dim, cfg);
  size_t fresh = 0;
  for (const PhEntry& e : entries) {
    fresh += inserted.Insert(e.key, e.value) ? 1 : 0;
  }
  PhTree built(dim, cfg);
  ASSERT_EQ(built.BulkLoad(entries), fresh) << label;
  ASSERT_EQ(built.size(), inserted.size()) << label;
  ASSERT_EQ(ValidatePhTreeDeep(built), "") << label;
  ASSERT_EQ(inserted.root() == nullptr, built.root() == nullptr) << label;
  if (built.root() != nullptr) {
    ASSERT_EQ(CompareNodes(inserted, inserted.root(), built, built.root(), ""),
              "")
        << label;
  }
  EXPECT_EQ(Structural(built.ComputeStats()),
            Structural(inserted.ComputeStats()))
      << label;
  // A freshly built arena holds exactly the reachable blocks.
  EXPECT_EQ(built.arena()->LiveBytes(), built.ComputeStats().memory_bytes)
      << label;
}

std::vector<PhEntry> EntriesOf(const Dataset& ds) {
  std::vector<PhEntry> entries;
  entries.reserve(ds.n());
  for (size_t i = 0; i < ds.n(); ++i) {
    entries.push_back(PhEntry{EncodeKeyD(ds.point(i)), i * 7 + 1});
  }
  return entries;
}

TEST(ZOrderBuilder, EqualsInsertBuiltAcrossDatasetsDimsAndModes) {
  constexpr size_t kN = 3000;
  for (const bool store_values : {true, false}) {
    for (const uint32_t k : {2u, 3u, 6u, 10u}) {
      const std::vector<std::pair<std::string, Dataset>> sets = {
          {"CUBE", GenerateCube(kN, k, 11 + k)},
          {"CLUSTER0.4", GenerateCluster(kN, k, 0.4, 12 + k)},
          {"CLUSTER0.5", GenerateCluster(kN, k, 0.5, 13 + k)},
      };
      for (const auto& [name, ds] : sets) {
        ExpectBuilderMatchesInsert(
            EntriesOf(ds), k, store_values,
            name + " k=" + std::to_string(k) +
                (store_values ? " values" : " key-only"));
      }
    }
    // TIGER-like data is two-dimensional only.
    ExpectBuilderMatchesInsert(EntriesOf(GenerateTigerLike(kN, 14)), 2,
                               store_values,
                               std::string("TIGER k=2") +
                                   (store_values ? " values" : " key-only"));
  }
}

TEST(ZOrderBuilder, HandCases) {
  // Empty input: nothing is built or published.
  ExpectBuilderMatchesInsert({}, 2, true, "empty");
  // One entry: a root holding one postfix.
  ExpectBuilderMatchesInsert({{{5, 9}, 3}}, 2, true, "one entry");
  // All duplicates: one entry, the first payload.
  {
    std::vector<PhEntry> dups(50, PhEntry{{7, 7, 7}, 0});
    for (size_t i = 0; i < dups.size(); ++i) {
      dups[i].value = 100 + i;
    }
    ExpectBuilderMatchesInsert(dups, 3, true, "all duplicates");
    PhTree tree(3);
    EXPECT_EQ(tree.BulkLoad(dups), 1u);
    EXPECT_EQ(tree.Find(PhKey{7, 7, 7}), std::optional<uint64_t>(100));
  }
  // Full range: keys that differ in the top bit and in the bottom bit.
  ExpectBuilderMatchesInsert(
      {{{0, 0}, 1}, {{~0ull, ~0ull}, 2}, {{1, 0}, 3}, {{~0ull, ~1ull}, 4}}, 2,
      true, "extremes");
  // Widest supported dimensionality (kMaxDims): LHC only.
  {
    std::vector<PhEntry> wide;
    Rng rng(63);
    for (int i = 0; i < 200; ++i) {
      PhKey key(kMaxDims);
      for (auto& v : key) {
        v = rng.NextU64() & (i % 2 == 0 ? 0xFF : ~0ull);
      }
      wide.push_back({key, static_cast<uint64_t>(i)});
    }
    ExpectBuilderMatchesInsert(wide, kMaxDims, true, "k=63 values");
    ExpectBuilderMatchesInsert(wide, kMaxDims, false, "k=63 key-only");
  }
}

TEST(ZOrderBuilder, KeyOnlyFullNodeWithOneSubIsLhc) {
  // Every 3D address at bit 1 taken, and address 0 split at bit 0 into a
  // sub-node: 7 postfixes plus one sub under one node at postfix length 1.
  // Key-only, with its sub handle in a 32-bit slot at the stream head, that
  // node is LHC: BHC is sub-free.
  std::vector<PhEntry> entries;
  for (uint64_t a = 0; a < 8; ++a) {
    entries.push_back({{(a >> 2 & 1) << 1, (a >> 1 & 1) << 1, (a & 1) << 1},
                       0});
  }
  entries.push_back({{0, 0, 1}, 0});
  std::reverse(entries.begin(), entries.end());
  ExpectBuilderMatchesInsert(entries, 3, false, "key-only full node");
  PhTreeConfig cfg;
  cfg.store_values = false;
  PhTree built(3, cfg);
  ASSERT_EQ(built.BulkLoad(entries), entries.size());
  const Node* root = built.root();
  ASSERT_EQ(root->num_entries(), 1u);
  const Node* full =
      built.arena()->NodeAt(root->OrdinalSub(root->FirstOrdinal()));
  EXPECT_EQ(full->repr(), Node::Repr::kLhc);
  EXPECT_EQ(full->postfix_len(), 1u);
  EXPECT_EQ(full->num_entries(), 8u);
  EXPECT_EQ(full->num_subs(), 1u);
}

TEST(ZOrderBuilder, RejectsDuplicateAndOutOfOrderKeys) {
  PhTree tree(2);
  ZOrderBuilder builder(&tree);
  EXPECT_EQ(builder.Add(PhKey{1, 1}, 0), ZOrderBuilder::AddResult::kAdded);
  EXPECT_EQ(builder.Add(PhKey{1, 1}, 0), ZOrderBuilder::AddResult::kDuplicate);
  EXPECT_EQ(builder.Add(PhKey{4, 0}, 0), ZOrderBuilder::AddResult::kAdded);
  // z-before {4, 0}: the first differing bit is bit 2 of dim 0.
  EXPECT_EQ(builder.Add(PhKey{0, 7}, 0),
            ZOrderBuilder::AddResult::kOutOfOrder);
  EXPECT_TRUE(tree.empty());  // nothing is published before Finish
  builder.Finish();
  EXPECT_EQ(tree.size(), 2u);
  EXPECT_EQ(ValidatePhTreeDeep(tree), "");
}

TEST(ZOrderBuilder, AbandonedBuildFreesEveryBlock) {
  PhTree tree(2);
  {
    ZOrderBuilder builder(&tree);
    for (uint64_t i = 0; i < 500; ++i) {
      builder.Add(PhKey{i, i}, i);
    }
  }
  EXPECT_TRUE(tree.empty());
  EXPECT_EQ(tree.arena()->LiveBytes(), 0u);
  EXPECT_EQ(tree.arena()->live_nodes(), 0u);
  EXPECT_EQ(ValidatePhTreeDeep(tree), "");
}

TEST(ZOrderPermutation, IsAStableZSort) {
  for (const uint32_t dim : {1u, 2u, 5u, 40u}) {
    Rng rng(dim);
    const size_t n = 2000;
    std::vector<uint64_t> keys;
    for (size_t i = 0; i < n; ++i) {
      for (uint32_t d = 0; d < dim; ++d) {
        // Few distinct values in high dimensions force sample ties.
        keys.push_back(dim > 4 ? rng.NextBounded(3) << 40 | rng.NextBounded(2)
                               : rng.NextU64() >> rng.NextBounded(64));
      }
    }
    const std::vector<size_t> order = ZOrderPermutation(keys, dim);
    ASSERT_EQ(order.size(), n);
    const auto row = [&](size_t i) {
      return std::span<const uint64_t>(keys).subspan(i * dim, dim);
    };
    for (size_t i = 1; i < n; ++i) {
      const int c = ZOrderCompare(row(order[i - 1]), row(order[i]));
      ASSERT_LE(c, 0) << "dim " << dim << " position " << i;
      if (c == 0) {
        ASSERT_LT(order[i - 1], order[i]) << "dim " << dim;
      }
    }
  }
}

TEST(ZOrderBuilder, BulkLoadIntoLiveMvccTreeMatchesPlain) {
  EpochManager epochs;
  PhTree mvcc(3);
  mvcc.EnableMvcc(&epochs);
  PhTree plain(3);
  std::vector<PhEntry> entries = EntriesOf(GenerateCube(2000, 3, 5));
  ASSERT_EQ(mvcc.BulkLoad(entries), entries.size());
  ASSERT_EQ(plain.BulkLoad(entries), entries.size());
  EXPECT_EQ(CompareNodes(plain, plain.root(), mvcc, mvcc.root(), ""), "");
  EXPECT_EQ(ValidatePhTreeDeep(mvcc), "");
  // Non-empty: the second batch takes the insert path, same result.
  std::vector<PhEntry> more = EntriesOf(GenerateCube(500, 3, 6));
  EXPECT_EQ(mvcc.BulkLoad(more), plain.BulkLoad(more));
  EXPECT_EQ(CompareNodes(plain, plain.root(), mvcc, mvcc.root(), ""), "");
}

}  // namespace
}  // namespace phtree
