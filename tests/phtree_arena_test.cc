// Tests for the arena-backed node storage: slab/freelist recycling, exact
// accounting, huge-page chunks, Clear()-as-reset, and pointer stability
// across PhTree moves.
#include "phtree/arena.h"

#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "phtree/phtree.h"
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

/// An empty node with no infix, written the way every node is written.
NodeRef BuildEmptyNode(NodeArena& arena, uint32_t dim, uint32_t postfix_len,
                       bool store_values) {
  const PhKey infix_key(dim, 0);
  return Node::TryBuild(arena, dim, /*infix_len=*/0, postfix_len,
                        store_values, infix_key, {}, nullptr);
}

// ---- SlabWordPool ---------------------------------------------------------

TEST(SlabWordPool, GrantWordsIsMonotoneAndClassRounded) {
  // The smallest block is one 16-byte granule: a bare node header. Up to
  // half a slab a grant is the request in whole granules.
  EXPECT_EQ(SlabWordPool::GrantWords(1), 2u);
  EXPECT_EQ(SlabWordPool::GrantWords(2), 2u);
  EXPECT_EQ(SlabWordPool::GrantWords(3), 4u);
  EXPECT_EQ(SlabWordPool::GrantWords(5), 6u);
  EXPECT_EQ(SlabWordPool::GrantWords(9), 10u);
  EXPECT_EQ(SlabWordPool::GrantWords(SlabWordPool::kMaxClassWords - 1),
            SlabWordPool::kMaxClassWords);
  EXPECT_EQ(SlabWordPool::GrantWords(SlabWordPool::kMaxClassWords),
            SlabWordPool::kMaxClassWords);
  // Above half a slab: multiples of kMaxClassWords.
  EXPECT_EQ(SlabWordPool::GrantWords(SlabWordPool::kMaxClassWords + 1),
            2 * SlabWordPool::kMaxClassWords);
  uint64_t prev = 0;
  for (uint64_t w = 1; w <= SlabWordPool::kMaxClassWords + 300; ++w) {
    const uint64_t g = SlabWordPool::GrantWords(w);
    EXPECT_GE(g, w);
    EXPECT_GE(g, prev);
    EXPECT_EQ(SlabWordPool::GrantWords(g), g);  // a grant is a fixed point
    if (w <= SlabWordPool::kMaxClassWords) {
      EXPECT_LT(g - w, SlabWordPool::kGranuleWords) << w;  // exact granules
    }
    prev = g;
  }
}

TEST(SlabWordPool, FreelistRecyclesBlocks) {
  SlabWordPool pool;
  const SlabWordPool::Block a = pool.Allocate(4);
  ASSERT_NE(a.words, nullptr);
  EXPECT_EQ(pool.At(a.handle), a.words);
  EXPECT_EQ(pool.LiveBytes(), 4 * sizeof(uint64_t));
  pool.Deallocate(a.handle, 4);
  EXPECT_TRUE(pool.OnFreelist(a.handle, 4));
  EXPECT_EQ(pool.LiveBytes(), 0u);
  EXPECT_EQ(pool.FreeListBytes(), 4 * sizeof(uint64_t));
  // The same grant (3 words round to 4) comes back from the freelist:
  // identical block, zeroed, no new slab.
  const uint64_t slab_bytes = pool.SlabBytes();
  const SlabWordPool::Block b = pool.Allocate(3);
  EXPECT_EQ(b.handle, a.handle);
  EXPECT_EQ(b.words, a.words);
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(b.words[i], 0u);
  }
  EXPECT_EQ(pool.SlabBytes(), slab_bytes);
  EXPECT_EQ(pool.FreeListBytes(), 0u);
  pool.Deallocate(b.handle, 4);
}

TEST(SlabWordPool, LargeBlocksAreTrackedAndReset) {
  SlabWordPool pool;
  const uint64_t granted =
      SlabWordPool::GrantWords(SlabWordPool::kMaxClassWords + 100);
  EXPECT_EQ(granted, 2 * SlabWordPool::kMaxClassWords);
  const SlabWordPool::Block big =
      pool.Allocate(SlabWordPool::kMaxClassWords + 100);
  ASSERT_NE(big.words, nullptr);
  // A large block is its own directory entry, named by granule 0, and
  // starts on a cache line.
  EXPECT_EQ(SlabWordPool::HandleGranule(big.handle), 0u);
  EXPECT_EQ(reinterpret_cast<uintptr_t>(big.words) % 64, 0u);
  EXPECT_TRUE(pool.IsGrantedBlock(big.handle, granted));
  EXPECT_FALSE(pool.IsGrantedBlock(big.handle, granted / 2));
  big.words[0] = 42;  // must be writable over the whole grant
  big.words[granted - 1] = 43;
  EXPECT_EQ(pool.LiveBytes(), granted * sizeof(uint64_t));
  pool.Reset();  // releases the large block without an explicit deallocate
  EXPECT_EQ(pool.LiveBytes(), 0u);
  EXPECT_EQ(pool.FreeListBytes(), 0u);
  EXPECT_EQ(pool.SlabBytes(), 0u);
}

TEST(SlabWordPool, HandleEncoderRoundTripsItsLimitsAndRejectsPastTheCap) {
  constexpr uint64_t kLastSlab = SlabWordPool::kMaxSlabs - 1;
  constexpr uint64_t kLastGranule =
      (uint64_t{1} << SlabWordPool::kGranuleBits) - 1;
  const NodeHandle last = SlabWordPool::EncodeHandle(kLastSlab, kLastGranule);
  ASSERT_NE(last, kInvalidNodeHandle);
  EXPECT_EQ(SlabWordPool::HandleSlab(last), kLastSlab);
  EXPECT_EQ(SlabWordPool::HandleGranule(last), kLastGranule);
  const NodeHandle first = SlabWordPool::EncodeHandle(0, 0);
  EXPECT_EQ(SlabWordPool::HandleSlab(first), 0u);
  EXPECT_EQ(SlabWordPool::HandleGranule(first), 0u);
  // One past the cap, or past a slab's granules, never wraps into a valid
  // handle. The all-ones handle names no block.
  EXPECT_EQ(SlabWordPool::EncodeHandle(kLastSlab + 1, 0), kInvalidNodeHandle);
  EXPECT_EQ(SlabWordPool::EncodeHandle(0, kLastGranule + 1),
            kInvalidNodeHandle);
  // The cap is 64 GiB of 64 KiB slabs.
  EXPECT_EQ((uint64_t{SlabWordPool::kMaxSlabs} + 1) *
                SlabWordPool::kSlabWords * sizeof(uint64_t),
            uint64_t{64} << 30);
}

TEST(SlabWordPool, AllocationPastTheCapFails) {
  // Two directory entries: one slab holds two half-slab blocks, so the
  // fifth such block has nowhere to go.
  SlabWordPool pool(/*max_slabs=*/2);
  std::vector<SlabWordPool::Block> blocks;
  for (int i = 0; i < 4; ++i) {
    blocks.push_back(pool.Allocate(SlabWordPool::kMaxClassWords));
    ASSERT_NE(blocks.back().words, nullptr) << i;
  }
  EXPECT_EQ(pool.Allocate(SlabWordPool::kMaxClassWords).words, nullptr);
  EXPECT_EQ(pool.Allocate(SlabWordPool::kMaxClassWords * 2).words, nullptr);
  EXPECT_EQ(pool.LiveBytes(),
            4 * SlabWordPool::kMaxClassWords * sizeof(uint64_t));
  // A freed block is reusable at the cap.
  pool.Deallocate(blocks[1].handle, SlabWordPool::kMaxClassWords);
  EXPECT_EQ(pool.Allocate(SlabWordPool::kMaxClassWords).handle,
            blocks[1].handle);

  // Through the node arena the same failure is an empty NodeRef, the
  // kNoMem seam of every mutation.
  NodeArena arena(/*max_slabs=*/1);
  size_t built = 0;
  while (BuildEmptyNode(arena, 2, 63, true)) {
    ++built;
    ASSERT_LE(built, SlabWordPool::kSlabWords);
  }
  EXPECT_EQ(built, SlabWordPool::kSlabWords / SlabWordPool::kGranuleWords);
}

TEST(SlabWordPool, SmallBlocksNeverStraddleACacheLine) {
  // A block touches no more 64-byte lines than its size needs: up to four
  // granules inside one line, a larger one mid-line only where that costs
  // no extra line. Sizes up to 40 words cross every granule count of the
  // first five lines; 3,000 blocks fill more than one slab.
  constexpr uint64_t kLineBytes = SlabWordPool::kLineWords * 8;
  SlabWordPool pool;
  Rng rng(5);
  uint64_t bump_words = 0;
  std::set<uint64_t> mid_line_sizes;
  for (int i = 0; i < 3000; ++i) {
    const uint64_t want = 1 + rng.NextBounded(40);
    const SlabWordPool::Block b = pool.Allocate(want);
    ASSERT_NE(b.words, nullptr);
    const uint64_t words = SlabWordPool::GrantWords(want);
    const uint64_t first = reinterpret_cast<uintptr_t>(b.words);
    const uint64_t last = first + words * 8 - 1;
    EXPECT_EQ(last / kLineBytes - first / kLineBytes + 1,
              (words * 8 + kLineBytes - 1) / kLineBytes)
        << words << " words at line offset " << first % kLineBytes;
    if (words > SlabWordPool::kLineWords && first % kLineBytes != 0) {
      mid_line_sizes.insert(words);
    }
    EXPECT_TRUE(pool.IsGrantedBlock(b.handle, words));
    bump_words += words;
  }
  // Blocks of 10, 12 and 14 words do start mid-line.
  EXPECT_TRUE(mid_line_sizes.count(10) && mid_line_sizes.count(12) &&
              mid_line_sizes.count(14));
  ASSERT_GT(pool.SlabBytes(), SlabWordPool::kSlabWords * 8);
  // Line padding and the abandoned slab tail are parked on the freelists,
  // not lost: live and free blocks cover every carved granule, and only the
  // current slab's uncarved rest is neither.
  EXPECT_EQ(pool.LiveBytes(), bump_words * sizeof(uint64_t));
  EXPECT_GT(pool.FreeListBytes(), 0u);
  uint64_t carved = 0;
  pool.ForEachCarvedRun([&](const uint64_t*, uint64_t words) {
    carved += words * 8;
  });
  EXPECT_EQ(pool.LiveBytes() + pool.FreeListBytes(), carved);
  uint64_t free_bytes = 0;
  pool.ForEachFreeBlock([&](NodeHandle h, uint64_t words) {
    EXPECT_TRUE(pool.IsGrantedBlock(h, words));
    EXPECT_TRUE(pool.OnFreelist(h, words));
    free_bytes += words * 8;
  });
  EXPECT_EQ(free_bytes, pool.FreeListBytes());
}

// ---- Huge-page chunks -----------------------------------------------------

constexpr uint64_t kHalfSlab = SlabWordPool::kMaxClassWords;
constexpr uint64_t kSlabBytes = SlabWordPool::kSlabWords * sizeof(uint64_t);
constexpr uint64_t kChunkBytes = SlabWordPool::kChunkBytes;
constexpr uint32_t kChunkSlabs = SlabWordPool::kChunkSlabs;

TEST(SlabWordPool, SlabsPastTheFirst2MiBComeThirtyTwoAtATimeFromOneChunk) {
  SlabWordPool pool;
  std::vector<SlabWordPool::Block> blocks;
  // Half-slab blocks fill a slab two at a time. The first kChunkSlabs slabs
  // are reserved one by one.
  for (uint32_t i = 0; i < 2 * kChunkSlabs; ++i) {
    blocks.push_back(pool.Allocate(kHalfSlab));
    ASSERT_NE(blocks.back().words, nullptr) << i;
    EXPECT_EQ(pool.SlabBytes(), (i / 2 + 1) * kSlabBytes) << i;
  }
  // The next slab reserves a whole chunk, and its 31 siblings follow
  // without another reservation.
  for (uint32_t i = 0; i < 2 * kChunkSlabs; ++i) {
    blocks.push_back(pool.Allocate(kHalfSlab));
    ASSERT_NE(blocks.back().words, nullptr) << i;
    EXPECT_EQ(pool.SlabBytes(), 2 * kChunkBytes) << i;
  }
  // One 2 MiB-aligned chunk whose slabs are contiguous, each with its own
  // directory entry, and every block resolvable and granted as before.
  const auto* base =
      reinterpret_cast<const char*>(blocks[2 * kChunkSlabs].words);
  EXPECT_EQ(reinterpret_cast<uintptr_t>(base) % kChunkBytes, 0u);
  std::set<uint32_t> entries;
  for (uint32_t i = 0; i < 2 * kChunkSlabs; ++i) {
    const SlabWordPool::Block& b = blocks[2 * kChunkSlabs + i];
    EXPECT_EQ(reinterpret_cast<const char*>(b.words),
              base + i * kHalfSlab * sizeof(uint64_t));
    EXPECT_EQ(pool.At(b.handle), b.words);
    EXPECT_TRUE(pool.IsGrantedBlock(b.handle, kHalfSlab));
    EXPECT_TRUE(pool.Owns(b.words));
    entries.insert(SlabWordPool::HandleSlab(b.handle));
  }
  EXPECT_EQ(entries.size(), kChunkSlabs);
  // The slab after the chunk brings the next chunk.
  blocks.push_back(pool.Allocate(kHalfSlab));
  ASSERT_NE(blocks.back().words, nullptr);
  EXPECT_EQ(pool.SlabBytes(), 3 * kChunkBytes);
  EXPECT_EQ(reinterpret_cast<uintptr_t>(blocks.back().words) % kChunkBytes,
            0u);
  EXPECT_EQ(pool.LiveBytes(), blocks.size() * kHalfSlab * sizeof(uint64_t));
}

TEST(SlabWordPool, ResetKeepsEveryChunk) {
  SlabWordPool pool;
  std::vector<uint64_t*> first;
  for (uint32_t i = 0; i < 6 * kChunkSlabs; ++i) {  // singles + two chunks
    first.push_back(pool.Allocate(kHalfSlab).words);
    ASSERT_NE(first.back(), nullptr) << i;
  }
  const uint64_t reserved = pool.SlabBytes();
  EXPECT_EQ(reserved, 3 * kChunkBytes);
  pool.Reset();
  EXPECT_EQ(pool.SlabBytes(), reserved);
  // A refill to the same high-water mark reserves nothing new: it bumps
  // through the same slabs in the same order.
  for (uint32_t i = 0; i < first.size(); ++i) {
    EXPECT_EQ(pool.Allocate(kHalfSlab).words, first[i]) << i;
  }
  EXPECT_EQ(pool.SlabBytes(), reserved);
}

TEST(SlabWordPool, NoChunkWithinAChunkOfTheCap) {
  // max_slabs = 40: after the 32 single slabs only 8 entries remain, fewer
  // than a chunk's 32, so the last 8 slabs are single too. At 70 a chunk
  // fits after the singles, and the 6 entries left are single slabs.
  for (const uint32_t cap : {40u, 70u}) {
    SCOPED_TRACE(cap);
    SlabWordPool pool(cap);
    for (uint32_t i = 0; i < 2 * cap; ++i) {
      ASSERT_NE(pool.Allocate(kHalfSlab).words, nullptr) << i;
      const uint32_t slab = i / 2;
      const bool in_chunk = cap >= 2 * kChunkSlabs && slab >= kChunkSlabs &&
                            slab < 2 * kChunkSlabs;
      EXPECT_EQ(pool.SlabBytes(),
                (in_chunk ? 2 * kChunkSlabs : slab + 1) * kSlabBytes)
          << i;
    }
    // At the cap, as AllocationPastTheCapFails shows at 2.
    EXPECT_EQ(pool.Allocate(kHalfSlab).words, nullptr);
    EXPECT_EQ(pool.Allocate(2 * kHalfSlab).words, nullptr);
    EXPECT_EQ(pool.SlabBytes(), cap * kSlabBytes);
    EXPECT_EQ(pool.LiveBytes(), 2 * cap * kHalfSlab * sizeof(uint64_t));
  }
}

TEST(SlabWordPool, ChunkIsAdvisedForHugePages) {
  // Both files are only read. The test asserts that the kernel may back
  // the chunk with a huge page, not that it did.
  std::string mode;
  std::getline(std::ifstream("/sys/kernel/mm/transparent_hugepage/enabled"),
               mode);
  if (mode.find("[always]") == std::string::npos &&
      mode.find("[madvise]") == std::string::npos) {
    GTEST_SKIP() << "transparent huge pages are off: '" << mode << "'";
  }
  SlabWordPool pool;
  uint64_t* chunk = nullptr;
  for (uint32_t i = 0; i <= 2 * kChunkSlabs; ++i) {
    chunk = pool.Allocate(kHalfSlab).words;
    ASSERT_NE(chunk, nullptr);
  }
  const auto addr = reinterpret_cast<uintptr_t>(chunk);
  ASSERT_EQ(addr % kChunkBytes, 0u);
  std::ifstream smaps("/proc/self/smaps");
  ASSERT_TRUE(smaps.good());
  bool covering = false;
  int eligible = -1;
  for (std::string line; std::getline(smaps, line);) {
    uintptr_t lo = 0;
    uintptr_t hi = 0;
    const int fields =
        std::sscanf(line.c_str(), "%" SCNxPTR "-%" SCNxPTR " ", &lo, &hi);
    if (fields == 2) {
      covering = lo <= addr && addr + kChunkBytes <= hi;
    } else if (covering &&
               std::sscanf(line.c_str(), "THPeligible: %d", &eligible) == 1) {
      break;
    }
  }
  EXPECT_EQ(eligible, 1) << "no THPeligible: 1 in the mapping of the chunk";
}

// A tree grown past its single slabs into chunks validates under both
// mutation policies, and a refill after Clear() reserves nothing new.
void GrowPastTheSingleSlabs(bool mvcc) {
  EpochManager epochs;
  PhTree tree(2);
  if (mvcc) {
    tree.EnableMvcc(&epochs);
  }
  const auto keys = RandomKeys(60000, 2, 59);
  for (const auto& key : keys) {
    ASSERT_TRUE(tree.Insert(key, 1));
  }
  const uint64_t reserved = tree.arena()->SlabBytes();
  ASSERT_GE(reserved, 2 * kChunkBytes);
  ASSERT_EQ(ValidatePhTreeDeep(tree), "");
  tree.Clear();
  for (const auto& key : keys) {
    ASSERT_TRUE(tree.Insert(key, 2));
  }
  EXPECT_EQ(tree.arena()->SlabBytes(), reserved);
  EXPECT_EQ(tree.Find(keys.back()), std::optional<uint64_t>(2));
  EXPECT_EQ(ValidatePhTreeDeep(tree), "");
}

TEST(PhTreeArena, TreePastTheSingleSlabsValidatesInPlace) {
  GrowPastTheSingleSlabs(/*mvcc=*/false);
}

TEST(PhTreeArena, TreePastTheSingleSlabsValidatesUnderMvcc) {
  GrowPastTheSingleSlabs(/*mvcc=*/true);
}

// ---- NodeArena ------------------------------------------------------------

TEST(NodeArena, RecyclesNodeBlocks) {
  NodeArena arena;
  NodeRef a = BuildEmptyNode(arena, 2, 63, true);
  EXPECT_TRUE(arena.Owns(a.ptr));
  EXPECT_EQ(arena.NodeAt(a.handle), a.ptr);
  EXPECT_TRUE(arena.IsGrantedBlock(a));
  EXPECT_EQ(arena.live_nodes(), 1u);
  arena.DeleteNode(a);
  EXPECT_EQ(arena.live_nodes(), 0u);
  EXPECT_TRUE(arena.pool().OnFreelist(a.handle, Node::kHeaderWords));
  // The freed block (and its handle) is reused before any fresh block of
  // its size.
  NodeRef b = BuildEmptyNode(arena, 3, 10, false);
  EXPECT_EQ(static_cast<void*>(b.ptr), static_cast<void*>(a.ptr));
  EXPECT_EQ(b.handle, a.handle);
  EXPECT_EQ(b.ptr->dim(), 3u);
  EXPECT_EQ(b.ptr->num_entries(), 0u);
  arena.DeleteNode(b);
}

TEST(NodeArena, OwnsRejectsForeignNodes) {
  NodeArena arena;
  NodeArena other;
  NodeRef mine = BuildEmptyNode(arena, 2, 63, true);
  NodeRef foreign = BuildEmptyNode(other, 2, 63, true);
  EXPECT_TRUE(arena.Owns(mine.ptr));
  EXPECT_FALSE(arena.Owns(foreign.ptr));
  EXPECT_FALSE(arena.Owns(nullptr));
  arena.DeleteNode(mine);
  other.DeleteNode(foreign);
}

// ---- Moving nodes ---------------------------------------------------------

// One non-root node N is grown by inserts through every block size it can
// occupy — every even word count from 4 to 46 (a 2-word block is a bare
// header, and no node in a tree is empty) — and shrunk back by erases.
// Every edit writes N into a new block. After every op N's parent must
// name N's current block, the deep validator must pass, and the block N
// left must be on a freelist (plain tree: freed at once) or in the retire
// queue (MVCC tree).
//
// Layout: 6D key-only keys agreeing on bits 63..9. The root holds one sub
// entry, P at postfix_len 8, which holds an anchor postfix (bit 8 set) and
// N at postfix_len 7 with no infix; N's entries are the 64 addresses of
// bit 7, each with a 7-bit postfix per dimension.
void GrowAndShrinkOneNode(bool mvcc) {
  constexpr uint32_t kDim = 6;
  PhTreeConfig cfg;
  cfg.store_values = false;
  EpochManager epochs;
  PhTree tree(kDim, cfg);
  if (mvcc) {
    tree.EnableMvcc(&epochs);
  }
  const NodeArena& arena = *tree.arena();
  const auto entry_key = [](uint64_t addr) {
    PhKey key(kDim);
    for (uint32_t d = 0; d < kDim; ++d) {
      key[d] = ((addr >> (kDim - 1 - d)) & 1u) << 7 | ((addr * 37 + d) & 0x7F);
    }
    return key;
  };
  ASSERT_TRUE(tree.Insert(PhKey(kDim, uint64_t{1} << 8), 0));  // the anchor
  // N's current reference, read from its parent P.
  const auto node_n = [&]() -> NodeRef {
    const Node* p = arena.NodeAt(tree.root()->OrdinalSub(0));
    const NodeHandle h = p->OrdinalSub(p->FindOrdinal(0));
    return NodeRef{const_cast<Node*>(arena.NodeAt(h)), h};
  };
  std::set<uint64_t> classes;
  NodeRef prev;
  uint64_t prev_words = 0;  // read while N's header was live
  const auto check = [&](size_t entries, const char* phase) {
    SCOPED_TRACE(testing::Message() << phase << " entries=" << entries);
    const NodeRef n = node_n();
    ASSERT_EQ(n.ptr->num_entries(), entries);
    ASSERT_EQ(n.ptr->postfix_len(), 7u);
    ASSERT_TRUE(arena.IsGrantedBlock(n));
    ASSERT_EQ(ValidatePhTreeDeep(tree), "");
    classes.insert(n.ptr->BlockWords());
    if (prev) {
      ASSERT_NE(prev.handle, n.handle) << "N was edited where it stands";
      if (mvcc) {
        bool retired = false;
        arena.ForEachRetired([&](NodeRef r, uint64_t) {
          retired = retired || r.handle == prev.handle;
        });
        EXPECT_TRUE(retired) << "the block N left is not retired";
      } else {
        EXPECT_TRUE(arena.pool().OnFreelist(prev.handle, prev_words))
            << "the block N left is not on its freelist";
      }
    }
    prev = n;
    prev_words = n.ptr->BlockWords();
  };
  ASSERT_TRUE(tree.Insert(entry_key(0), 0));
  for (uint64_t addr = 1; addr < 64; ++addr) {
    ASSERT_TRUE(tree.Insert(entry_key(addr), 0));
    check(addr + 1, "grow");
  }
  for (uint64_t addr = 63; addr >= 2; --addr) {
    ASSERT_TRUE(tree.Erase(entry_key(addr)));
    check(addr, "shrink");
  }
  std::set<uint64_t> every_even;
  for (uint64_t words = 4; words <= 46; words += 2) {
    every_even.insert(words);
  }
  EXPECT_EQ(classes, every_even);
}

TEST(PhTreeArena, NodeMovesThroughEveryBlockClassInPlace) {
  GrowAndShrinkOneNode(/*mvcc=*/false);
}

TEST(PhTreeArena, NodeMovesThroughEveryBlockClassUnderMvcc) {
  GrowAndShrinkOneNode(/*mvcc=*/true);
}

// ---- PhTree integration ---------------------------------------------------

TEST(PhTreeArena, ExactAccountingMatchesLiveBytes) {
  PhTree tree(3);
  const auto keys = RandomKeys(2000, 3, 17);
  for (const auto& key : keys) {
    tree.Insert(key, 1);
  }
  const PhTreeStats stats = tree.ComputeStats();
  ASSERT_NE(tree.arena(), nullptr);
  // The headline invariant: the per-node sum equals the arena's meter —
  // the space tables measure the allocator, they do not model it.
  EXPECT_EQ(stats.memory_bytes, stats.arena_live_bytes);
  EXPECT_EQ(stats.arena_live_bytes, tree.arena()->LiveBytes());
  EXPECT_GE(stats.arena_slab_bytes,
            stats.arena_live_bytes + stats.arena_freelist_bytes);
  EXPECT_EQ(ValidatePhTree(tree), "");
}

TEST(PhTreeArena, MemoryBytesIsInsertionOrderIndependentUnderChurn) {
  // Build the same content along two different mutation histories: the
  // capacities (and therefore the measured footprint) must agree anyway.
  const auto keys = RandomKeys(600, 2, 29);
  PhTree direct(2);
  for (size_t i = 0; i < 300; ++i) {
    direct.Insert(keys[i], 1);
  }
  PhTree churned(2);
  for (const auto& key : keys) {
    churned.Insert(key, 1);
  }
  for (size_t i = 300; i < keys.size(); ++i) {
    churned.Erase(keys[i]);
  }
  EXPECT_EQ(churned.ComputeStats().memory_bytes,
            direct.ComputeStats().memory_bytes);
}

TEST(PhTreeArena, ClearThenReuse) {
  PhTree tree(2);
  const auto keys = RandomKeys(3000, 2, 31);
  for (const auto& key : keys) {
    tree.Insert(key, 1);
  }
  const uint64_t slab_bytes = tree.arena()->SlabBytes();
  tree.Clear();
  EXPECT_EQ(tree.size(), 0u);
  EXPECT_EQ(tree.arena()->live_nodes(), 0u);
  EXPECT_EQ(tree.arena()->LiveBytes(), 0u);
  // Refill: slabs were retained, so no new reservation is needed.
  for (const auto& key : keys) {
    EXPECT_TRUE(tree.Insert(key, 2));
  }
  EXPECT_EQ(tree.arena()->SlabBytes(), slab_bytes);
  for (const auto& key : keys) {
    EXPECT_EQ(tree.Find(key), std::optional<uint64_t>(2));
  }
  EXPECT_EQ(ValidatePhTree(tree), "");
}

TEST(PhTreeArena, MoveConstructionKeepsNodesValid) {
  PhTree source(3);
  const auto keys = RandomKeys(2000, 3, 41);
  for (const auto& key : keys) {
    source.Insert(key, 9);
  }
  const uint64_t bytes = source.ComputeStats().memory_bytes;
  // The arena lives behind a unique_ptr, so node pointers survive the
  // move of the PhTree object itself.
  PhTree moved(std::move(source));
  EXPECT_EQ(moved.size(), keys.size());
  EXPECT_EQ(moved.ComputeStats().memory_bytes, bytes);
  for (const auto& key : keys) {
    EXPECT_TRUE(moved.Contains(key));
  }
  EXPECT_EQ(ValidatePhTree(moved), "");
  // Mutation after the move exercises the transferred arena.
  for (const auto& key : keys) {
    EXPECT_TRUE(moved.Erase(key));
  }
  EXPECT_EQ(moved.size(), 0u);
}

TEST(PhTreeArena, MoveAssignmentReleasesOldTree) {
  const auto keys = RandomKeys(1000, 2, 43);
  PhTree a(2);
  PhTree b(2);
  for (const auto& key : keys) {
    a.Insert(key, 1);
    b.Insert(key, 2);
  }
  a = std::move(b);  // a's old arena (and all its nodes) must free cleanly
  EXPECT_EQ(a.size(), keys.size());
  for (const auto& key : keys) {
    EXPECT_EQ(a.Find(key), std::optional<uint64_t>(2));
  }
  EXPECT_EQ(ValidatePhTree(a), "");
}

TEST(PhTreeArena, MovedFromTreeIsReusable) {
  PhTree source(2);
  source.Insert(PhKey{1, 2}, 3);
  PhTree moved(std::move(source));
  // NOLINTNEXTLINE(bugprone-use-after-move): reuse-after-move is supported.
  EXPECT_EQ(source.size(), 0u);
  EXPECT_TRUE(source.Insert(PhKey{4, 5}, 6));
  EXPECT_TRUE(source.Contains(PhKey{4, 5}));
  EXPECT_TRUE(moved.Contains(PhKey{1, 2}));
  EXPECT_EQ(ValidatePhTree(source), "");
}

TEST(PhTreeArena, FreelistGrowsOnEraseAndShrinksOnReinsert) {
  PhTree tree(2);
  const auto keys = RandomKeys(2000, 2, 47);
  for (const auto& key : keys) {
    tree.Insert(key, 1);
  }
  // Building already trades blocks through the freelists (every edit
  // writes its node into a new block), so the baseline is not zero.
  const uint64_t freelist_after_build = tree.arena()->FreeListBytes();
  for (size_t i = 0; i < keys.size() / 2; ++i) {
    tree.Erase(keys[i]);
  }
  const uint64_t freelist_after_erase = tree.arena()->FreeListBytes();
  EXPECT_GT(freelist_after_erase, freelist_after_build);
  const uint64_t slab_bytes = tree.arena()->SlabBytes();
  for (size_t i = 0; i < keys.size() / 2; ++i) {
    tree.Insert(keys[i], 1);
  }
  // Reinsertion drains the freelists instead of reserving new slabs.
  EXPECT_LT(tree.arena()->FreeListBytes(), freelist_after_erase);
  EXPECT_EQ(tree.arena()->SlabBytes(), slab_bytes);
  EXPECT_EQ(ValidatePhTree(tree), "");
}

TEST(PhTreeArena, SerializeRoundTripBuildsIntoDestinationArena) {
  PhTree tree(3);
  const auto keys = RandomKeys(1200, 3, 53);
  for (size_t i = 0; i < keys.size(); ++i) {
    tree.Insert(keys[i], i);
  }
  const std::vector<uint8_t> bytes = SerializePhTree(tree);
  const auto loaded = DeserializePhTreeOr(bytes);
  ASSERT_TRUE(loaded.has_value()) << loaded.error().ToString();
  ASSERT_NE(loaded->arena(), nullptr);
  EXPECT_EQ(loaded->arena()->live_nodes(),
            tree.ComputeStats().n_nodes);
  // Identical content => identical measured footprint (shape and capacities
  // are pure functions of the stored entries).
  EXPECT_EQ(loaded->ComputeStats().memory_bytes,
            tree.ComputeStats().memory_bytes);
  EXPECT_EQ(ValidatePhTree(*loaded), "");
}

}  // namespace
}  // namespace phtree
