// Unit tests for the unified traversal engine (src/phtree/cursor.h): the
// window-mask algebra against brute force, TreeCursor full / window /
// prefix scans against filtered enumeration, and the suspend/resume
// pagination contract (including resume after the token key was erased)
// across PhTree, PhTreeSync and both PhTreeSharded routing modes.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/rng.h"
#include "phtree/arena.h"
#include "phtree/cursor.h"
#include "phtree/phtree.h"
#include "phtree/phtree_sync.h"
#include "phtree/sharded.h"
#include "phtree/stats.h"

namespace phtree {
namespace {

using Entries = std::vector<std::pair<PhKey, uint64_t>>;

// ---- Mask algebra vs brute force ----------------------------------------

TEST(WindowMaskTest, ValiditySuccessorAndSuccessorGeMatchBruteForce) {
  Rng rng(0xC0FFEE);
  constexpr uint32_t kBits = 10;  // 1024-address hypercube, exhaustive
  const uint64_t space = uint64_t{1} << kBits;
  for (int round = 0; round < 200; ++round) {
    const uint64_t upper = rng.NextU64() & LowMask(kBits);
    const uint64_t lower = rng.NextU64() & upper;  // guarantee m_L subset m_U
    std::vector<uint64_t> valid;
    for (uint64_t a = 0; a < space; ++a) {
      const bool expect = (a | lower) == a && (a & upper) == a;
      ASSERT_EQ(WindowAddrValid(a, lower, upper), expect)
          << "addr " << a << " lower " << lower << " upper " << upper;
      if (expect) {
        valid.push_back(a);
      }
    }
    ASSERT_FALSE(valid.empty());  // m_L itself is always valid
    for (uint64_t a = 0; a < space; ++a) {
      // Successor: smallest valid address strictly greater than a. The
      // paper formula is only defined for a valid current address (that is
      // how the cursor steps); invalid addresses go through SuccessorGE.
      const auto next = std::upper_bound(valid.begin(), valid.end(), a);
      if (WindowAddrValid(a, lower, upper) && next != valid.end()) {
        ASSERT_EQ(WindowSuccessor(a, lower, upper), *next)
            << "addr " << a << " lower " << lower << " upper " << upper;
      }
      // SuccessorGE: smallest valid address >= a, kInvalidAddr if none.
      const auto ge = std::lower_bound(valid.begin(), valid.end(), a);
      const uint64_t expect_ge = ge == valid.end() ? kInvalidAddr : *ge;
      ASSERT_EQ(WindowSuccessorGE(a, lower, upper), expect_ge)
          << "addr " << a << " lower " << lower << " upper " << upper;
    }
  }
}

TEST(WindowMaskTest, SuccessorGeKnownValues) {
  // The counterexample that broke the naive `addr | m_L` derivation:
  // lower == upper == 0b100, addr 0b011 -> 0b100 (not "no successor").
  EXPECT_EQ(WindowSuccessorGE(0b011, 0b100, 0b100), 0b100u);
  EXPECT_EQ(WindowSuccessorGE(0b011, 0b001, 0b101), 0b101u);
  EXPECT_EQ(WindowSuccessorGE(0b110, 0b001, 0b101), kInvalidAddr);
  EXPECT_EQ(WindowSuccessorGE(0b101, 0b010, 0b111), 0b110u);
  EXPECT_EQ(WindowSuccessorGE(0, 0, 0), 0u);
  EXPECT_EQ(WindowSuccessorGE(1, 0, 0), kInvalidAddr);
}

TEST(WindowMaskTest, ComputeWindowMasksMatchesQuadrantIntersection) {
  // The masks are impossible exactly when the node's region misses the
  // window, in one dimension or more; otherwise an address is mask-valid
  // iff its quadrant box meets the window, checked per dimension with
  // RegionBounds. Window edges are drawn from the region's edges, its
  // halves' edges, their neighbours and random words, so touching and
  // just-missing intervals are common.
  Rng rng(0xBADC0DE);
  size_t misses = 0;
  size_t meets = 0;
  for (int round = 0; round < 4000; ++round) {
    const uint32_t dim = 1 + rng.NextBounded(6);
    const uint32_t postfix_len = rng.NextBounded(kBitWidth);
    PhKey path(dim), min(dim), max(dim);
    bool region_meets = true;
    for (uint32_t d = 0; d < dim; ++d) {
      path[d] = rng.NextU64();
      uint64_t lo, hi;
      RegionBounds(path[d], postfix_len + 1, &lo, &hi);
      const uint64_t lower_half_max = lo | LowMask(postfix_len);
      const uint64_t edges[] = {lo == 0 ? lo : lo - 1,
                                lo,
                                lower_half_max,
                                lower_half_max + 1,
                                hi,
                                hi == ~uint64_t{0} ? hi : hi + 1,
                                lo | (rng.NextU64() & LowMask(postfix_len + 1)),
                                rng.NextU64()};
      min[d] = edges[rng.NextBounded(8)];
      max[d] = edges[rng.NextBounded(8)];
      if (min[d] > max[d]) {
        std::swap(min[d], max[d]);
      }
      region_meets = region_meets && min[d] <= hi && max[d] >= lo;
    }
    const WindowMasks masks = ComputeWindowMasks(path, min, max, postfix_len);
    ASSERT_EQ(masks.Possible(), region_meets) << "round " << round;
    (region_meets ? meets : misses) += 1;
    for (uint64_t addr = 0; addr < (uint64_t{1} << dim); ++addr) {
      bool intersects = region_meets;
      for (uint32_t d = 0; d < dim && intersects; ++d) {
        // Child quadrant of dimension d: the node region's bit
        // `postfix_len` set from the address, lower bits free.
        const uint64_t base = path[d] & ~LowMask(postfix_len + 1);
        const uint64_t bit = (addr >> (dim - 1 - d)) & 1;
        uint64_t lo, hi;
        RegionBounds(base | (bit << postfix_len), postfix_len, &lo, &hi);
        intersects = hi >= min[d] && lo <= max[d];
      }
      ASSERT_EQ(WindowAddrValid(addr, masks.lower, masks.upper), intersects)
          << "round " << round << " addr " << addr;
    }
  }
  EXPECT_GT(misses, 500u);
  EXPECT_GT(meets, 500u);
}

// ---- NodeCursor's decode vs the ordinal accessors -------------------------

/// The entry `cursor` stands on reads as the node's ordinal accessors read
/// it: address, sub flag, child handle, postfix record and payload.
void ExpectEntryMatchesOrdinals(const NodeCursor& cursor, const Node& node,
                                const PhKey& background) {
  const uint64_t ord = cursor.ordinal();
  ASSERT_EQ(cursor.addr(), node.OrdinalAddr(ord)) << "ord " << ord;
  ASSERT_EQ(cursor.is_sub(), node.OrdinalIsSub(ord)) << "ord " << ord;
  if (cursor.is_sub()) {
    ASSERT_EQ(cursor.sub(), node.OrdinalSub(ord)) << "ord " << ord;
    return;
  }
  PhKey want = background;
  PhKey got = background;
  node.ReadPostfixInto(ord, want);
  ASSERT_EQ(cursor.ReadPostfix(got), node.OrdinalPayload(ord))
      << "ord " << ord;
  ASSERT_EQ(got, want) << "ord " << ord;
}

/// Steps `cursor` to its end, checking every entry; returns the addresses.
std::vector<uint64_t> DrainChecked(NodeCursor& cursor, const Node& node,
                                   const PhKey& background) {
  std::vector<uint64_t> addrs;
  for (; cursor.valid(); cursor.Next()) {
    ExpectEntryMatchesOrdinals(cursor, node, background);
    if (testing::Test::HasFatalFailure()) {
      return addrs;
    }
    addrs.push_back(cursor.addr());
  }
  return addrs;
}

/// The stored addresses >= `start` that the masks admit, ascending.
std::vector<uint64_t> Admitted(const std::vector<uint64_t>& stored,
                               uint64_t lower, uint64_t upper,
                               uint64_t start = 0) {
  std::vector<uint64_t> out;
  for (uint64_t a : stored) {
    if (a >= start && WindowAddrValid(a, lower, upper)) {
      out.push_back(a);
    }
  }
  return out;
}

TEST(NodeCursorTest, DecodedEntriesMatchOrdinalAccessors) {
  // Standalone LHC and BHC nodes of 1-64 entries. Sub patterns: none (the
  // nodes BHC can hold), a sub at the first and the last slot of every
  // 8-entry batch, and random subs. Every yielded entry must read as the
  // ordinal accessors read it, and the yielded addresses must be exactly
  // the stored ones the masks admit, under BindAll, random masks, masks
  // with mL == mU, and binds at arbitrary start addresses (the seek
  // TreeCursor's resume makes at every level of the token's path).
  NodeArena arena;
  Rng rng(0xDEC0DE);
  size_t lhc_nodes = 0;
  size_t bhc_nodes = 0;
  for (const uint32_t dim : {2u, 3u, 6u, 10u}) {
    const uint64_t space = uint64_t{1} << dim;
    for (const bool store_values : {true, false}) {
      for (int round = 0; round < 150; ++round) {
        SCOPED_TRACE("dim " + std::to_string(dim) + " values " +
                     std::to_string(store_values) + " round " +
                     std::to_string(round));
        const uint64_t n =
            1 + rng.NextBounded(std::min<uint64_t>(64, space));
        std::vector<uint64_t> stored;
        for (uint64_t a = 0; a < space && stored.size() < n; ++a) {
          // Selection sampling: n distinct addresses, ascending.
          if (rng.NextBounded(space - a) < n - stored.size()) {
            stored.push_back(a);
          }
        }
        const int pattern = round % 3;
        const uint32_t postfix_len = rng.NextBounded(41);
        const uint32_t infix_len = rng.NextBounded(8);
        PhKey infix_key(dim);
        for (uint64_t& w : infix_key) {
          w = rng.NextU64();
        }
        std::vector<NodeEntry> entries;
        std::vector<uint64_t> keys;
        for (uint64_t i = 0; i < n; ++i) {
          NodeEntry e;
          e.addr = stored[i];
          const uint64_t slot = i % kLhcScanBatch;
          e.is_sub = pattern == 1 ? slot == 0 || slot == kLhcScanBatch - 1
                                  : pattern == 2 && rng.NextBool(0.3);
          e.payload = e.is_sub ? rng.NextU64() & 0xFFFFFFFFu : rng.NextU64();
          entries.push_back(e);
          for (uint32_t d = 0; d < dim; ++d) {
            keys.push_back(rng.NextU64());
          }
        }
        const NodeRef ref =
            Node::TryBuild(arena, dim, infix_len, postfix_len, store_values,
                           infix_key, entries, keys.data());
        ASSERT_TRUE(ref);
        const Node& node = *ref.ptr;
        (node.is_bhc() ? bhc_nodes : lhc_nodes) += 1;
        PhKey background(dim);
        for (uint64_t& w : background) {
          w = rng.NextU64();
        }

        NodeCursor cursor;
        cursor.BindAll(&node);
        ASSERT_EQ(DrainChecked(cursor, node, background), stored);
        for (int trial = 0; trial < 12; ++trial) {
          SCOPED_TRACE("trial " + std::to_string(trial));
          uint64_t upper = rng.NextU64() & LowMask(dim);
          uint64_t lower = rng.NextU64() & upper;
          if (trial % 4 == 0) {
            // One admissible address, stored or not.
            lower = upper = rng.NextBool(0.5)
                                ? stored[rng.NextBounded(stored.size())]
                                : rng.NextBounded(space);
          } else if (trial % 4 == 1) {
            lower = 0;  // many admissible addresses: long batch walks
            upper = LowMask(dim) & ~(uint64_t{1} << rng.NextBounded(dim));
          }
          cursor.Bind(&node, lower, upper);
          ASSERT_EQ(DrainChecked(cursor, node, background),
                    Admitted(stored, lower, upper));
          const uint64_t start = rng.NextBounded(space + 1);
          cursor.Bind(&node, lower, upper, start);
          ASSERT_EQ(DrainChecked(cursor, node, background),
                    Admitted(stored, lower, upper, start));
        }
        arena.DeleteNode(ref);
      }
    }
  }
  EXPECT_GT(lhc_nodes, 0u);
  EXPECT_GT(bhc_nodes, 0u);
}

TEST(ZOrderCompareTest, AgreesWithZOrderLess) {
  Rng rng(0x2ED0);
  for (int round = 0; round < 2000; ++round) {
    const uint32_t dim = 1 + rng.NextBounded(5);
    PhKey a(dim), b(dim);
    for (uint32_t d = 0; d < dim; ++d) {
      a[d] = rng.NextU64() & LowMask(1 + rng.NextBounded(8));
      // Bias towards equal / near-equal keys so ties are actually hit.
      b[d] = rng.NextBool(0.5) ? a[d] : rng.NextU64() & LowMask(8);
    }
    const int cmp = ZOrderCompare(a, b);
    EXPECT_EQ(cmp < 0, ZOrderLess(a, b));
    EXPECT_EQ(cmp > 0, ZOrderLess(b, a));
    EXPECT_EQ(cmp == 0, a == b);
    EXPECT_EQ(ZOrderCompare(b, a), -cmp);
  }
}

// ---- TreeCursor scans vs brute force ------------------------------------

/// Part of each instance's name and a salt for its seed. Every tree
/// follows the one representation rule; the labels keep the instance names
/// (the suite's test IDs) stable.
enum class Label : uint8_t { kAdaptive, kLhcOnly, kHcOnly };

struct CursorParam {
  uint32_t dim;
  uint32_t key_bits;
  Label label;
};

std::string CursorParamName(const testing::TestParamInfo<CursorParam>& info) {
  const char* label = info.param.label == Label::kAdaptive  ? "Adaptive"
                      : info.param.label == Label::kLhcOnly ? "LhcOnly"
                                                            : "HcOnly";
  return "dim" + std::to_string(info.param.dim) + "bits" +
         std::to_string(info.param.key_bits) + label;
}

/// Seed for one test of the current instance.
uint64_t Seed(uint64_t test_salt, const CursorParam& p) {
  return test_salt ^ p.dim ^ (static_cast<uint64_t>(p.label) << 40);
}

class TreeCursorTest : public testing::TestWithParam<CursorParam> {
 protected:
  void BuildTree(size_t n, Rng* rng) {
    const CursorParam p = GetParam();
    tree_ = std::make_unique<PhTree>(p.dim);
    for (size_t i = 0; i < n; ++i) {
      PhKey key(p.dim);
      for (auto& v : key) {
        v = rng->NextU64() & LowMask(p.key_bits);
      }
      if (tree_->Insert(key, i)) {
        entries_.emplace_back(std::move(key), i);
      }
    }
    std::sort(entries_.begin(), entries_.end(),
              [](const auto& a, const auto& b) {
                return ZOrderLess(a.first, b.first);
              });
  }

  Entries BruteWindow(const PhKey& lo, const PhKey& hi) const {
    Entries out;
    for (const auto& e : entries_) {
      bool in = true;
      for (size_t d = 0; d < e.first.size(); ++d) {
        in = in && e.first[d] >= lo[d] && e.first[d] <= hi[d];
      }
      if (in) {
        out.push_back(e);
      }
    }
    return out;  // entries_ is z-sorted, so this is the expected sequence
  }

  static Entries Drain(TreeCursor cursor) {
    Entries out;
    for (; cursor.Valid(); cursor.Next()) {
      const auto key = cursor.key();
      out.emplace_back(PhKey(key.begin(), key.end()), cursor.value());
    }
    return out;
  }

  std::unique_ptr<PhTree> tree_;
  Entries entries_;  // z-sorted ground truth
};

TEST_P(TreeCursorTest, FullScanIsZOrderedAndComplete) {
  Rng rng(Seed(0xF001, GetParam()));
  BuildTree(900, &rng);
  EXPECT_EQ(Drain(TreeCursor(*tree_)), entries_);
}

TEST_P(TreeCursorTest, WindowScanMatchesBruteForceUnderAllTunings) {
  const CursorParam p = GetParam();
  Rng rng(Seed(0xAB5E ^ (p.key_bits << 8), p));
  BuildTree(900, &rng);
  for (int q = 0; q < 160; ++q) {
    PhKey lo(p.dim), hi(p.dim);
    for (uint32_t d = 0; d < p.dim; ++d) {
      uint64_t a = rng.NextU64() & LowMask(p.key_bits);
      uint64_t b = rng.NextU64() & LowMask(p.key_bits);
      lo[d] = std::min(a, b);
      hi[d] = std::max(a, b);
    }
    ASSERT_EQ(Drain(TreeCursor(*tree_, lo, hi)), BruteWindow(lo, hi))
        << "query " << q;
  }
}

TEST_P(TreeCursorTest, PointWindowFindsExactlyTheStoredKey) {
  Rng rng(Seed(0x90127, GetParam()));
  BuildTree(500, &rng);
  for (size_t i = 0; i < entries_.size(); i += 7) {
    const PhKey& key = entries_[i].first;
    TreeCursor cursor(*tree_, key, key);
    ASSERT_TRUE(cursor.Valid());
    EXPECT_TRUE(std::equal(key.begin(), key.end(), cursor.key().begin()));
    EXPECT_EQ(cursor.value(), entries_[i].second);
    cursor.Next();
    EXPECT_FALSE(cursor.Valid());
  }
  // A key that is not stored yields an immediately-exhausted cursor.
  PhKey missing(GetParam().dim, LowMask(GetParam().key_bits));
  if (!tree_->Contains(missing)) {
    EXPECT_FALSE(TreeCursor(*tree_, missing, missing).Valid());
  }
}

TEST_P(TreeCursorTest, PrefixScanMatchesBruteForce) {
  const CursorParam p = GetParam();
  Rng rng(Seed(0x9FE1, p));
  BuildTree(700, &rng);
  for (const uint32_t prefix_bits :
       {uint32_t{0}, kBitWidth - p.key_bits, kBitWidth - p.key_bits + 2,
        kBitWidth - 1, kBitWidth}) {
    const PhKey& probe = entries_[entries_.size() / 2].first;
    uint64_t lo_word, hi_word;
    Entries expect;
    for (const auto& e : entries_) {
      bool match = true;
      for (uint32_t d = 0; d < p.dim && match; ++d) {
        RegionBounds(probe[d], kBitWidth - prefix_bits, &lo_word, &hi_word);
        match = e.first[d] >= lo_word && e.first[d] <= hi_word;
      }
      if (match) {
        expect.push_back(e);
      }
    }
    EXPECT_EQ(Drain(TreeCursor::Prefix(*tree_, probe, prefix_bits)), expect)
        << "prefix_bits " << prefix_bits;
  }
}

TEST_P(TreeCursorTest, PaginationConcatenatesToTheOneShotScan) {
  const CursorParam p = GetParam();
  Rng rng(Seed(0x7A6E, p));
  BuildTree(600, &rng);
  PhKey lo(p.dim, 0), hi(p.dim, LowMask(p.key_bits));
  const Entries oneshot = tree_->QueryWindow(lo, hi);
  for (const size_t page_size : {size_t{1}, size_t{2}, size_t{3}, size_t{5}}) {
    Entries paged;
    std::optional<PhKey> token;
    size_t pages = 0;
    for (;;) {
      const WindowPage page =
          token.has_value()
              ? tree_->QueryWindowPage(lo, hi, page_size, *token)
              : tree_->QueryWindowPage(lo, hi, page_size);
      ASSERT_LE(page.entries.size(), page_size);
      paged.insert(paged.end(), page.entries.begin(), page.entries.end());
      ASSERT_LE(++pages, oneshot.size() / page_size + 2);
      if (!page.more) {
        // The exact-more contract: the final page is the first page that
        // could not be filled OR the scan ended precisely at a boundary.
        EXPECT_TRUE(page.token.empty());
        break;
      }
      token = page.token;
    }
    EXPECT_EQ(paged, oneshot) << "page_size " << page_size;
  }
}

TEST_P(TreeCursorTest, ResumeSurvivesEraseOfTheTokenKey) {
  const CursorParam p = GetParam();
  Rng rng(Seed(0xDEAD, p));
  BuildTree(400, &rng);
  PhKey lo(p.dim, 0), hi(p.dim, LowMask(p.key_bits));
  const Entries oneshot = tree_->QueryWindow(lo, hi);
  ASSERT_GE(oneshot.size(), 8u);
  const size_t page_size = 3;
  const WindowPage first = tree_->QueryWindowPage(lo, hi, page_size);
  ASSERT_TRUE(first.more);
  // Erase the resume key itself, then resume: the scan continues at the
  // first surviving entry strictly z-after the token.
  ASSERT_TRUE(tree_->Erase(first.token));
  Entries rest;
  std::optional<PhKey> token = first.token;
  while (token.has_value()) {
    const WindowPage page = tree_->QueryWindowPage(lo, hi, page_size, *token);
    rest.insert(rest.end(), page.entries.begin(), page.entries.end());
    token = page.more ? std::optional<PhKey>(page.token) : std::nullopt;
  }
  Entries expect(oneshot.begin() + page_size, oneshot.end());
  EXPECT_EQ(rest, expect);
}

/// True iff a node on `key`'s path down `tree` has a region that misses
/// the window [lo, hi]: a resume from `key` descends into a subtree that
/// the window's masks reject.
bool PathEntersARegionTheWindowMisses(const PhTree& tree, const PhKey& key,
                                      const PhKey& lo, const PhKey& hi) {
  for (const Node* node = tree.root(); node != nullptr;) {
    PhKey with_infix = key;
    node->ReadInfixInto(with_infix);
    if (with_infix != key) {
      return false;  // the key's path leaves the tree above this node
    }
    const uint32_t pl = node->postfix_len();
    for (size_t d = 0; d < key.size(); ++d) {
      uint64_t region_lo, region_hi;
      RegionBounds(key[d], pl + 1, &region_lo, &region_hi);
      if (region_hi < lo[d] || region_lo > hi[d]) {
        return true;
      }
    }
    const uint64_t ord = node->FindOrdinal(HcAddressAt(key, pl));
    if (ord == Node::kNoOrdinal || !node->OrdinalIsSub(ord)) {
      return false;
    }
    node = tree.arena()->NodeAt(node->OrdinalSub(ord));
  }
  return false;
}

TEST_P(TreeCursorTest, ResumeFromATokenOutsideTheWindowMatchesBruteForce) {
  // Tokens outside the window: z-before all of it, z-after all of it, and
  // inside its z-range on a path through a subtree the window misses.
  const CursorParam p = GetParam();
  Rng rng(Seed(0x70CE, p));
  BuildTree(600, &rng);
  size_t before = 0;
  size_t after = 0;
  size_t missed = 0;
  for (int q = 0; q < 60; ++q) {
    PhKey lo(p.dim), hi(p.dim);
    for (uint32_t d = 0; d < p.dim; ++d) {
      const uint64_t a = rng.NextU64() & LowMask(p.key_bits);
      const uint64_t b = rng.NextU64() & LowMask(p.key_bits);
      lo[d] = std::min(a, b);
      hi[d] = std::max(a, b);
    }
    // One coordinate of the window's z-least (lo) or z-greatest (hi)
    // corner moved out of the window, then stored and random keys.
    std::vector<PhKey> tokens;
    for (uint32_t d = 0; d < p.dim; ++d) {
      if (lo[d] > 0) {
        tokens.push_back(lo);
        --tokens.back()[d];
      }
      if (hi[d] < LowMask(p.key_bits)) {
        tokens.push_back(hi);
        ++tokens.back()[d];
      }
    }
    for (int i = 0; i < 24; ++i) {
      PhKey key(p.dim);
      for (auto& v : key) {
        v = rng.NextU64() & LowMask(p.key_bits);
      }
      tokens.push_back(
          i % 2 == 0 ? entries_[rng.NextBounded(entries_.size())].first : key);
    }
    const Entries window = BruteWindow(lo, hi);
    for (const PhKey& token : tokens) {
      bool inside = true;
      for (uint32_t d = 0; d < p.dim; ++d) {
        inside = inside && token[d] >= lo[d] && token[d] <= hi[d];
      }
      if (inside) {
        continue;
      }
      Entries expect;
      for (const auto& e : window) {
        if (ZOrderLess(token, e.first)) {
          expect.push_back(e);
        }
      }
      ASSERT_EQ(Drain(TreeCursor(*tree_, lo, hi, token)), expect)
          << "query " << q;
      if (ZOrderLess(token, lo)) {
        ++before;
      } else if (ZOrderLess(hi, token)) {
        ++after;
      } else if (PathEntersARegionTheWindowMisses(*tree_, token, lo, hi)) {
        ++missed;
      }
    }
  }
  EXPECT_GT(before, 0u);
  EXPECT_GT(after, 0u);
  EXPECT_GT(missed, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Cursor, TreeCursorTest,
    testing::Values(CursorParam{2, 8, Label::kAdaptive},
                    CursorParam{2, 16, Label::kHcOnly},
                    CursorParam{2, 16, Label::kLhcOnly},
                    CursorParam{3, 10, Label::kAdaptive},
                    CursorParam{3, 10, Label::kHcOnly},
                    CursorParam{6, 6, Label::kAdaptive},
                    CursorParam{6, 6, Label::kLhcOnly},
                    CursorParam{6, 62, Label::kAdaptive}),
    CursorParamName);

// ---- Resume mid-node (dense single node) --------------------------------

TEST(TreeCursorResumeTest, ResumesMidNodeInAFullNode) {
  // Key-only 2-D keys below 4: the node at bit level 1 (the root's only
  // sub-node) is full. With four postfixes it is BHC; once {1,1} turns
  // address 0 into a sub-node (holding {0,0} and {1,1}) it is LHC. Page
  // size 1 forces a resume inside it, in both layouts, and inside its
  // sub-node.
  PhTreeConfig cfg;
  cfg.store_values = false;
  PhTree tree(2, cfg);
  const auto full_node = [&tree] {
    const Node* root = tree.root();
    return tree.arena()->NodeAt(root->OrdinalSub(root->FirstOrdinal()));
  };
  const auto expect_resumed_pages_match_scan = [&tree](size_t n) {
    Entries expect;
    for (TreeCursor c(tree); c.Valid(); c.Next()) {
      expect.emplace_back(PhKey(c.key().begin(), c.key().end()), c.value());
    }
    ASSERT_EQ(expect.size(), n);
    const PhKey lo{0, 0}, hi{3, 3};
    Entries paged;
    std::optional<PhKey> token;
    for (;;) {
      const WindowPage page = token.has_value()
                                  ? tree.QueryWindowPage(lo, hi, 1, *token)
                                  : tree.QueryWindowPage(lo, hi, 1);
      paged.insert(paged.end(), page.entries.begin(), page.entries.end());
      if (!page.more) {
        break;
      }
      token = page.token;
    }
    EXPECT_EQ(paged, expect);
  };
  for (const PhKey& key :
       {PhKey{0, 0}, PhKey{0, 2}, PhKey{2, 0}, PhKey{2, 2}}) {
    ASSERT_TRUE(tree.Insert(key, 0));
  }
  ASSERT_EQ(full_node()->postfix_len(), 1u);
  ASSERT_EQ(full_node()->num_entries(), 4u);
  ASSERT_TRUE(full_node()->is_bhc());
  expect_resumed_pages_match_scan(4);

  ASSERT_TRUE(tree.Insert(PhKey{1, 1}, 0));
  ASSERT_EQ(full_node()->num_entries(), 4u);
  ASSERT_EQ(full_node()->num_subs(), 1u);
  ASSERT_EQ(full_node()->repr(), Node::Repr::kLhc);
  expect_resumed_pages_match_scan(5);
}

// ---- Pagination across the concurrent wrappers --------------------------

template <typename Tree>
Entries DrainPages(const Tree& tree, const PhKey& lo, const PhKey& hi,
                   size_t page_size) {
  Entries out;
  std::optional<PhKey> token;
  for (;;) {
    const WindowPage page = token.has_value()
                                ? tree.QueryWindowPage(lo, hi, page_size,
                                                       *token)
                                : tree.QueryWindowPage(lo, hi, page_size);
    out.insert(out.end(), page.entries.begin(), page.entries.end());
    if (!page.more) {
      return out;
    }
    token = page.token;
  }
}

TEST(PaginationVariantsTest, SyncAndShardedAgreeWithPlainTree) {
  constexpr uint32_t kDim = 3;
  constexpr uint32_t kKeyBits = 9;
  Rng rng(0x5ADED);
  PhTree plain(kDim);
  PhTreeSync sync(kDim);
  PhTreeSharded sharded_z(kDim, 4, ShardRouting::kZPrefix);
  PhTreeSharded sharded_h(kDim, 4, ShardRouting::kHash);
  for (size_t i = 0; i < 800; ++i) {
    PhKey key(kDim);
    for (auto& v : key) {
      v = rng.NextU64() & LowMask(kKeyBits);
    }
    plain.Insert(key, i);
    sync.Insert(key, i);
    sharded_z.Insert(key, i);
    sharded_h.Insert(key, i);
  }
  for (int q = 0; q < 25; ++q) {
    PhKey lo(kDim), hi(kDim);
    for (uint32_t d = 0; d < kDim; ++d) {
      uint64_t a = rng.NextU64() & LowMask(kKeyBits);
      uint64_t b = rng.NextU64() & LowMask(kKeyBits);
      lo[d] = std::min(a, b);
      hi[d] = std::max(a, b);
    }
    const size_t page_size = 1 + rng.NextBounded(6);
    const Entries expect = plain.QueryWindow(lo, hi);
    EXPECT_EQ(DrainPages(plain, lo, hi, page_size), expect);
    EXPECT_EQ(DrainPages(sync, lo, hi, page_size), expect);
    EXPECT_EQ(DrainPages(sharded_z, lo, hi, page_size), expect);
    EXPECT_EQ(DrainPages(sharded_h, lo, hi, page_size), expect);
  }
}

}  // namespace
}  // namespace phtree
