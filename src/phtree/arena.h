// Per-tree block allocator for PH-tree nodes.
//
// The paper stores each node as one packed bit stream (Sect. 3.4) and leads
// with space, so every node is exactly one arena block: a 16-byte header
// (class Node) followed directly by the node's bit-stream words. Resolving a
// child handle therefore lands on the header and the first stream words in
// the same 64-byte cache line, and a descent waits on one memory access per
// level. Blocks come from 64 KiB slabs in power-of-two size classes with
// per-class freelists. A tree's first 2 MiB of slabs are single
// allocations; past that, slabs are reserved 32 at a time from one 2 MiB
// chunk advised for transparent huge pages, so a large tree's descent
// walks one TLB entry per 2 MiB page instead of one per 4 KiB page.
// Consequences:
//   * insert splits / erase splices never pay a malloc round-trip,
//   * Clear() is an O(slabs) arena reset instead of a recursive delete,
//   * ComputeStats() reports exact bytes (slab / live / freelist) — the
//     space tables measure, rather than model, the allocator.
#ifndef PHTREE_PHTREE_ARENA_H_
#define PHTREE_PHTREE_ARENA_H_

#include <atomic>
#include <bit>
#include <cstdint>
#include <deque>
#include <memory>
#include <thread>
#include <vector>

#include "common/fault.h"
#include "phtree/node.h"

namespace phtree {

/// Epoch-based reclamation for lock-free MVCC reads.
///
/// Readers (and copy-on-write mutators) announce the global epoch in one of
/// ~kSlots cache-line-padded slots before touching the tree and clear the
/// slot when done. The epoch can only advance when every occupied slot
/// holds the *current* value, so once a node is retired at epoch stamp r it
/// is provably unreachable by every participant as soon as the global epoch
/// reaches r + 2 — the arena defers the actual DeleteNode until then.
///
/// Why mutators pin too: a retire's unlink store must happen-before the
/// epoch advances past the mutator, which the advance scan provides only if
/// the mutator occupies a slot while unlinking (the scan's seq_cst load of
/// the cleared slot synchronises with the mutator's exit store). This is
/// the classic three-epoch scheme (cf. Fraser's EBR / crossbeam).
class EpochManager {
 public:
  static constexpr uint32_t kSlots = 64;  // power of two (mask probing)

  EpochManager() = default;
  EpochManager(const EpochManager&) = delete;
  EpochManager& operator=(const EpochManager&) = delete;

  /// Current global epoch (starts at 1; 0 marks a free slot).
  uint64_t epoch() const { return global_.load(std::memory_order_seq_cst); }

  /// Claims a slot and announces the current epoch; returns the slot index
  /// for Exit. Re-announces until the announcement is current, which
  /// guarantees the global epoch advances at most once while the guard is
  /// open. Wait-free unless all slots are occupied (then it yields).
  uint32_t Enter() {
    const uint32_t start = static_cast<uint32_t>(
        std::hash<std::thread::id>{}(std::this_thread::get_id()));
    for (uint32_t probe = 0;; ++probe) {
      const uint32_t s = (start + probe) & (kSlots - 1);
      uint64_t expected = 0;
      uint64_t e = global_.load(std::memory_order_seq_cst);
      if (slots_[s].e.compare_exchange_strong(expected, e,
                                              std::memory_order_seq_cst)) {
        for (;;) {
          const uint64_t now = global_.load(std::memory_order_seq_cst);
          if (now == e) {
            return s;
          }
          e = now;
          slots_[s].e.store(e, std::memory_order_seq_cst);
        }
      }
      if (probe >= kSlots) {
        std::this_thread::yield();
      }
    }
  }

  /// Releases a slot returned by Enter.
  void Exit(uint32_t slot) {
    slots_[slot].e.store(0, std::memory_order_seq_cst);
  }

  /// Advances the global epoch by one if no participant lags behind it.
  /// Returns true iff this call performed the advance. Safe to race from
  /// multiple writers (CAS); a lost race counts as "did not advance".
  bool TryAdvance() {
    uint64_t e = global_.load(std::memory_order_seq_cst);
    for (uint32_t s = 0; s < kSlots; ++s) {
      const uint64_t v = slots_[s].e.load(std::memory_order_seq_cst);
      if (v != 0 && v != e) {
        return false;  // a participant is still inside an older epoch
      }
    }
    return global_.compare_exchange_strong(e, e + 1,
                                           std::memory_order_seq_cst);
  }

  /// Blocks (yielding) until two full epoch advances have happened, i.e.
  /// every read guard open at the time of the call has exited. Used by the
  /// wrappers to quiesce before replacing a whole tree (Load).
  void SynchronizeFullGrace() {
    const uint64_t target = epoch() + 2;
    while (epoch() < target) {
      if (!TryAdvance()) {
        std::this_thread::yield();
      }
    }
  }

  /// RAII Enter/Exit.
  class ReadGuard {
   public:
    explicit ReadGuard(EpochManager& mgr) : mgr_(&mgr), slot_(mgr.Enter()) {}
    ~ReadGuard() { mgr_->Exit(slot_); }
    ReadGuard(const ReadGuard&) = delete;
    ReadGuard& operator=(const ReadGuard&) = delete;

   private:
    EpochManager* mgr_;
    uint32_t slot_;
  };

 private:
  struct alignas(64) Slot {
    std::atomic<uint64_t> e{0};
  };

  std::atomic<uint64_t> global_{1};
  Slot slots_[kSlots];
};

/// The block allocator under every node. Blocks are whole 16-byte granules
/// of 64-byte-aligned 64 KiB slabs, in power-of-two size classes of 2 to
/// kMaxClassWords words recycled through per-class freelists; a bump
/// cursor carves fresh blocks. A block of kLineWords words or fewer never
/// straddles a cache line, and a larger one starts on a line boundary: the
/// cursor aligns each block to min(size, kLineWords) words and parks the
/// skipped granules on the freelists. A block larger than the biggest class
/// (a huge node) gets its own line-aligned allocation and directory
/// entry.
///
/// Blocks are named by 32-bit handles: a slab-directory index in the high
/// bits and a granule offset in the low kGranuleBits. The directory is
/// published RCU-style, so lock-free readers resolve handles concurrently
/// with the writer growing it.
///
/// Reservation rule: a pool's first kChunkSlabs slabs are single 64 KiB
/// line-aligned allocations, so a tree below 2 MiB pins no more than it
/// uses. Every later slab comes from a chunk: one kChunkBytes-aligned
/// allocation of kChunkSlabs slabs, reserved at once and advised
/// MADV_HUGEPAGE, unless fewer than kChunkSlabs never-used directory
/// entries remain under the cap (then slabs stay single). A chunk is one
/// x86-64 huge page: where the host's THP mode is `always` or `madvise`,
/// the kernel may map it with one TLB entry instead of 512, and the deeper
/// levels of a large tree stop paying a page walk each. Each slab of a chunk
/// keeps its own directory entry; only the release unit differs, so the
/// pool frees its recorded reservations, not slabs.
class SlabWordPool {
 public:
  /// 64 KiB slabs: large enough that typical nodes never straddle a malloc,
  /// small enough that a mostly-empty tree does not pin megabytes.
  static constexpr uint64_t kSlabWords = 8192;
  /// Slabs per huge-page chunk, and the chunk's size and alignment: 2 MiB,
  /// the x86-64 transparent-huge-page size.
  static constexpr uint32_t kChunkSlabs = 32;
  static constexpr uint64_t kChunkBytes =
      kChunkSlabs * kSlabWords * sizeof(uint64_t);
  /// Handle granule: the smallest block (a bare 16-byte node header).
  static constexpr uint64_t kGranuleWords = 2;
  static constexpr uint32_t kGranuleBits = 12;
  static_assert(kSlabWords == kGranuleWords << kGranuleBits);
  /// One 64-byte cache line.
  static constexpr uint64_t kLineWords = 8;
  /// Largest size-class block: half a slab.
  static constexpr uint64_t kMaxClassWords = kSlabWords / 2;
  /// Directory capacity: every slab index below this fits the handle, and
  /// the all-ones handle (kInvalidNodeHandle) names no block. 2^20 - 1
  /// slabs of 64 KiB cap one tree at 64 GiB.
  static constexpr uint32_t kMaxSlabs =
      (uint32_t{1} << (32 - kGranuleBits)) - 1;

  /// Granted block size: next power of two (at least one granule) up to
  /// kMaxClassWords, then the next multiple of kMaxClassWords. A pure
  /// function of `min_words`, so a node holding exactly its grant has an
  /// insertion-order-independent size.
  static constexpr uint64_t GrantWords(uint64_t min_words) {
    if (min_words > kMaxClassWords) {
      // Large blocks grow in kMaxClassWords granules: deterministic (the
      // size tables must not depend on growth history) yet coarse enough
      // that a giant node moves once per 32 KiB of growth, not per
      // insert.
      return (min_words + kMaxClassWords - 1) / kMaxClassWords *
             kMaxClassWords;
    }
    return std::bit_ceil(min_words < kGranuleWords ? kGranuleWords
                                                   : min_words);
  }

  /// The handle of granule `granule` of directory entry `slab`, or
  /// kInvalidNodeHandle if either lies outside the handle's range (an
  /// allocation past the cap fails instead of wrapping).
  static NodeHandle EncodeHandle(uint64_t slab, uint64_t granule) {
    if (slab >= kMaxSlabs || granule >= (uint64_t{1} << kGranuleBits)) {
      return kInvalidNodeHandle;
    }
    return static_cast<NodeHandle>(slab << kGranuleBits | granule);
  }
  static uint32_t HandleSlab(NodeHandle h) { return h >> kGranuleBits; }
  static uint32_t HandleGranule(NodeHandle h) {
    return h & ((uint32_t{1} << kGranuleBits) - 1);
  }

  /// A block: its first word and its handle.
  struct Block {
    uint64_t* words = nullptr;
    NodeHandle handle = kInvalidNodeHandle;
  };

  /// `max_slabs` caps the directory below kMaxSlabs (tests exercise the
  /// cap without reserving 64 GiB).
  explicit SlabWordPool(uint32_t max_slabs = kMaxSlabs);
  SlabWordPool(const SlabWordPool&) = delete;
  SlabWordPool& operator=(const SlabWordPool&) = delete;
  ~SlabWordPool();

  /// Returns a zeroed block of GrantWords(min_words) words, or an empty
  /// Block if memory or the handle space is exhausted.
  Block Allocate(uint64_t min_words);

  /// Returns the block `h` of `words` granted words to its freelist (a
  /// large block to the system).
  void Deallocate(NodeHandle h, uint64_t words);

  /// First word of block `h`: O(1), one directory lookup. Safe to call from
  /// lock-free readers concurrently with writer-side growth: the directory
  /// is an RCU snapshot, and an entry is written before any handle naming
  /// it is published.
  uint64_t* At(NodeHandle h) const {
    const DirEntry* dir = dir_.load(std::memory_order_acquire);
    return dir[HandleSlab(h)].base.load(std::memory_order_relaxed) +
           uint64_t{HandleGranule(h)} * kGranuleWords;
  }

  /// Drops every outstanding block in O(slabs): rewinds the bump cursor,
  /// clears the freelists, frees the large blocks. All blocks handed out
  /// before the call become invalid; slabs and chunks are retained for
  /// reuse.
  void Reset();

  /// True iff `p` is the start of a granule of one of this pool's slabs or
  /// the start of one of its large blocks. O(slabs).
  bool Owns(const void* p) const;

  /// True iff block `h` can hold a granted block of `words` words: inside
  /// its slab at an offset aligned for its class, or a large block of
  /// exactly that size.
  bool IsGrantedBlock(NodeHandle h, uint64_t words) const;

  /// True iff block `h` of `words` words is on its class freelist.
  /// Debug/test only: O(freelist length).
  bool OnFreelist(NodeHandle h, uint64_t words) const;

  /// Total bytes reserved from the system (slabs, including every slab of
  /// a chunk, + large blocks).
  uint64_t SlabBytes() const {
    return slabs_.size() * kSlabWords * sizeof(uint64_t) + large_bytes_;
  }
  /// Bytes currently handed out.
  uint64_t LiveBytes() const { return live_bytes_; }
  /// Bytes parked in size-class freelists, ready for reuse.
  uint64_t FreeListBytes() const { return free_bytes_; }

 private:
  /// One directory entry: a slab, a large block, or free (base == null,
  /// `large_words` then links the next free entry).
  struct DirEntry {
    std::atomic<uint64_t*> base{nullptr};
    std::atomic<uint64_t> large_words{0};  ///< 0 for a slab
  };

  static constexpr uint32_t kNumClasses = 13;  // 2^1 .. 2^12 words
  static constexpr uint32_t kNoEntry = ~uint32_t{0};

  static uint32_t ClassFor(uint64_t words) {
    return static_cast<uint32_t>(std::bit_width(words - 1));
  }

  /// One reservation from the system: a single slab or a chunk of
  /// kChunkSlabs slabs.
  struct Reservation {
    uint64_t* base;
    uint32_t slabs;
  };

  Block AllocateLarge(uint64_t words);
  /// Appends a fresh slab, or a chunk's kChunkSlabs slabs, to the bump
  /// order; false (nothing changed) on failure.
  bool AddSlab();
  /// Returns `r` to the system (after unpoisoning it).
  static void FreeReservation(Reservation r);
  /// Moves the bump cursor to the start of the next slab, allocating one
  /// if none is retained. False (cursor unchanged) on failure.
  bool NextSlab();
  /// Pushes block `h` of `words` words onto its class freelist.
  void PushFree(NodeHandle h, uint64_t words);
  /// Stores a directory entry and returns its index, or kNoEntry at the
  /// cap or if the directory cannot grow.
  uint32_t AddEntry(uint64_t* base, uint64_t large_words);
  void ReleaseEntry(uint32_t index);
  DirEntry& Entry(uint32_t index) const {
    return dir_.load(std::memory_order_relaxed)[index];
  }

  uint32_t max_slabs_;
  /// Directory indices of the slabs, in bump order.
  std::vector<uint32_t> slabs_;
  /// What the slabs were reserved as; freed only by the destructor.
  std::vector<Reservation> reserved_;
  size_t cur_slab_ = 0;    // slabs_ position of the bump cursor
  uint64_t slab_off_ = 0;  // word offset of the bump cursor
  /// Freelist heads; each free block links the next in its last word.
  NodeHandle free_[kNumClasses];
  uint32_t free_entry_ = kNoEntry;  // head of the free directory entries
  uint64_t large_bytes_ = 0;
  uint64_t live_bytes_ = 0;
  uint64_t free_bytes_ = 0;
  /// RCU snapshot of the directory; old snapshots are parked until
  /// destruction (lock-free readers may still load them).
  std::atomic<DirEntry*> dir_{nullptr};
  std::atomic<uint64_t> dir_count_{0};
  uint64_t dir_capacity_ = 0;
  std::vector<std::unique_ptr<DirEntry[]>> old_dirs_;
};

/// Owner of every Node of one PhTree: each node is one SlabWordPool block,
/// a 16-byte header followed by its bit stream, addressed by its block's
/// 32-bit handle. The arena address is stable for the lifetime of the
/// owning tree (PhTree holds it behind a unique_ptr), so Node pointers
/// resolved from handles never dangle across a PhTree move.
class NodeArena {
 public:
  explicit NodeArena(uint32_t max_slabs = SlabWordPool::kMaxSlabs)
      : pool_(max_slabs) {}
  NodeArena(const NodeArena&) = delete;
  NodeArena& operator=(const NodeArena&) = delete;

  /// Resolves a handle to the node it names: O(1), one directory lookup.
  /// The handle must name a live node. Safe from lock-free readers (see
  /// SlabWordPool::At).
  Node* NodeAt(NodeHandle h) { return reinterpret_cast<Node*>(pool_.At(h)); }
  const Node* NodeAt(NodeHandle h) const {
    return reinterpret_cast<const Node*>(pool_.At(h));
  }

  /// Returns the node's block to the pool.
  void DeleteNode(NodeRef ref);

  /// Attaches (or detaches, nullptr) the epoch manager that gates deferred
  /// reclamation. While attached, RetireNode defers the DeleteNode of
  /// unlinked-but-possibly-still-read nodes until every epoch-guarded
  /// reader of the retire epoch has exited.
  void SetEpochManager(EpochManager* epochs);
  EpochManager* epoch_manager() const { return epochs_; }

  /// Retires a node that was just unlinked from the tree by a publication:
  /// without an epoch manager this is DeleteNode; with one the node is
  /// stamped with the current epoch and queued — its block stays intact
  /// and readable until Reclaim proves no reader can still hold it.
  void RetireNode(NodeRef ref);

  /// Tries to advance the epoch and deletes every retired node whose stamp
  /// is two or more epochs old. Called by writers after each mutation (and
  /// harmless to call any time).
  void Reclaim();

  /// Bytes held by retired-but-not-yet-reclaimed nodes.
  /// LiveBytes() == reachable-tree bytes + RetiredBytes().
  uint64_t RetiredBytes() const { return retired_bytes_; }
  /// Number of retired-but-not-yet-reclaimed nodes.
  size_t retired_nodes() const { return retired_.size(); }
  /// Total nodes whose deferred DeleteNode has completed.
  uint64_t reclaimed_nodes_total() const { return reclaimed_total_; }
  /// Calls `fn(ref, bytes)` for every retired-but-not-yet-reclaimed node.
  template <typename Fn>
  void ForEachRetired(Fn&& fn) const {
    for (const Retired& r : retired_) {
      fn(r.ref, r.bytes);
    }
  }

  /// Destroys every outstanding node in O(slabs), without walking the tree
  /// (nodes own nothing but their block). Slabs are retained, so refilling
  /// the tree is allocation-free until it outgrows its previous high-water
  /// mark.
  void Reset();

  /// True iff `node` starts one of this arena's blocks. Debug/validation
  /// only: O(slabs).
  bool Owns(const Node* node) const { return pool_.Owns(node); }

  /// True iff `ref`'s block is exactly the block its node's contents are
  /// granted (Node::BlockWords), placed as the pool places such a block.
  bool IsGrantedBlock(NodeRef ref) const;

  /// True iff block `h` of `words` words is free and parked for reuse.
  /// Debug/test only: O(freelist length).
  bool OnFreelist(NodeHandle h, uint64_t words) const {
    return pool_.OnFreelist(h, words);
  }

  /// Number of nodes currently allocated and not yet deleted.
  size_t live_nodes() const { return live_nodes_; }

  /// Exact bytes reserved from the system: slabs + large blocks.
  uint64_t SlabBytes() const { return pool_.SlabBytes(); }
  /// Exact bytes in use by live nodes (their blocks).
  uint64_t LiveBytes() const { return pool_.LiveBytes(); }
  /// Exact recyclable bytes parked in the freelists.
  uint64_t FreeListBytes() const { return pool_.FreeListBytes(); }

 private:
  friend class Node;

  /// Allocates a zeroed block for a node with a stream of `stream_bits`
  /// bits and constructs an empty node header in it; empty on failure.
  /// Every node block comes from here (Node::TryBuild, TryEdit),
  /// and `site` names its fault site: the fallible seam the tree's
  /// commit-or-rollback mutations are built on.
  NodeRef AllocateNode(uint32_t dim, uint32_t infix_len, uint32_t postfix_len,
                       bool store_values, uint64_t stream_bits,
                       FaultSite site);

  /// One deferred-free record; stamps are non-decreasing in queue order.
  struct Retired {
    NodeRef ref;
    uint64_t stamp;
    uint64_t bytes;
  };

  SlabWordPool pool_;
  size_t live_nodes_ = 0;
  /// Epoch-deferred reclamation state (COW/MVCC mode only).
  EpochManager* epochs_ = nullptr;
  std::deque<Retired> retired_;
  uint64_t retired_bytes_ = 0;
  uint64_t reclaimed_total_ = 0;
};

}  // namespace phtree

#endif  // PHTREE_PHTREE_ARENA_H_
