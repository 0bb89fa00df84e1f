// Per-tree slab allocator for PH-tree nodes and their bit-stream storage.
//
// The paper's headline claim is space efficiency, so the reproduction must
// account for (and minimise) allocator overhead instead of estimating it:
// every Node object is carved out of fixed-size slabs with a freelist for
// recycling, and every node's BitBuffer words come from a bump-allocated
// word pool with power-of-two size-class freelists. Consequences:
//   * insert splits / erase splices never pay a malloc round-trip,
//   * Clear() is an O(slabs) arena reset instead of a recursive delete,
//   * ComputeStats() reports exact bytes (slab / live / freelist) — the
//     space tables measure, rather than model, the allocator.
#ifndef PHTREE_PHTREE_ARENA_H_
#define PHTREE_PHTREE_ARENA_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <thread>
#include <vector>

#include "common/bit_buffer.h"
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

/// WordPool over bump-allocated slabs with power-of-two size-class
/// freelists. Blocks of up to kMaxClassWords words are rounded up to a
/// power of two and recycled through per-class freelists (LHC shift
/// grow/shrink churns these); larger blocks (huge HC nodes) fall back to
/// individually tracked heap blocks so Reset() can release them in one
/// sweep.
class SlabWordPool final : public WordPool {
 public:
  /// 64 KiB slabs: large enough that typical nodes never straddle a malloc,
  /// small enough that a mostly-empty tree does not pin megabytes.
  static constexpr uint64_t kSlabWords = 8192;
  /// Largest size-class block: half a slab.
  static constexpr uint64_t kMaxClassWords = kSlabWords / 2;

  SlabWordPool() = default;
  SlabWordPool(const SlabWordPool&) = delete;
  SlabWordPool& operator=(const SlabWordPool&) = delete;
  ~SlabWordPool() override;

  uint64_t* AllocateWords(uint64_t min_words, uint64_t* actual_words) override;
  void DeallocateWords(uint64_t* block, uint64_t words) override;

  /// Granted block size: next power of two up to kMaxClassWords, then the
  /// next multiple of kMaxClassWords. A pure function of `min_words`, so a
  /// buffer holding exactly its grant has insertion-order-independent size.
  uint64_t GrantWords(uint64_t min_words) const override;

  /// Drops every outstanding block in O(slabs): rewinds the bump cursor,
  /// clears the freelists, frees the large-block list. All blocks handed
  /// out before the call become invalid; slabs are retained for reuse.
  void Reset();

  /// Total bytes reserved from the system (slabs + large blocks).
  uint64_t SlabBytes() const {
    return slabs_.size() * kSlabWords * sizeof(uint64_t) + large_bytes_;
  }
  /// Bytes currently handed out to live buffers.
  uint64_t LiveBytes() const { return live_bytes_; }
  /// Bytes parked in size-class freelists, ready for reuse.
  uint64_t FreeListBytes() const { return free_bytes_; }

 private:
  struct LargeBlock {
    LargeBlock* prev;
    LargeBlock* next;
    uint64_t words;
    // Block data follows the header.
  };

  static constexpr uint32_t kNumClasses = 13;  // 2^0 .. 2^12 words

  uint64_t* AllocateLarge(uint64_t words);
  void DeallocateLarge(uint64_t* block);
  void FreeAllLarge();

  std::vector<std::unique_ptr<uint64_t[]>> slabs_;
  size_t cur_slab_ = 0;      // slab the bump cursor points into
  uint64_t slab_off_ = 0;    // word offset of the bump cursor
  uint64_t* free_[kNumClasses] = {};  // freelist heads; next ptr in word 0
  LargeBlock* large_head_ = nullptr;
  uint64_t large_bytes_ = 0;
  uint64_t live_bytes_ = 0;
  uint64_t free_bytes_ = 0;
};

/// A freshly allocated node: its address plus its 32-bit arena handle.
/// Nodes store only handles of their children (halving the child-slot
/// width), so callers must keep the handle alongside the pointer until the
/// child link is written.
struct NodeRef {
  Node* ptr = nullptr;
  NodeHandle handle = kInvalidNodeHandle;

  explicit operator bool() const { return ptr != nullptr; }
};

/// Owner of every Node of one PhTree. Nodes are placement-constructed into
/// slots of fixed-size slabs and addressed by 32-bit handles that encode
/// (slab index, slot index); deleted nodes go on a freelist whose links —
/// themselves handles — reuse the slot memory. The arena address is stable
/// for the lifetime of the owning tree (PhTree holds it behind a
/// unique_ptr), so Node pointers resolved from handles and the word-pool
/// pointer baked into each BitBuffer never dangle across a PhTree move.
class NodeArena {
 public:
  /// Nodes per slab; at ~56 bytes per Node one slab is ~14 KiB. Must stay a
  /// power of two: handles are slab_index * kNodesPerSlab + slot_index.
  static constexpr size_t kNodesPerSlab = 256;
  static constexpr uint32_t kSlabShift = 8;
  static constexpr uint32_t kSlotMask = kNodesPerSlab - 1;

  NodeArena() = default;
  NodeArena(const NodeArena&) = delete;
  NodeArena& operator=(const NodeArena&) = delete;
  ~NodeArena();

  /// Resolves a handle to the node it names: O(1), one slab lookup. The
  /// handle must name a live node. Safe to call from lock-free readers
  /// concurrently with writer-side slab growth: the slab directory is an
  /// RCU snapshot published with release semantics before any handle
  /// referencing a new slab becomes visible.
  Node* NodeAt(NodeHandle h) {
    NodeSlot** dir = slab_dir_.load(std::memory_order_acquire);
    return reinterpret_cast<Node*>(&dir[h >> kSlabShift][h & kSlotMask]);
  }
  const Node* NodeAt(NodeHandle h) const {
    return const_cast<NodeArena*>(this)->NodeAt(h);
  }

  /// Constructs a Node whose BitBuffer draws from this arena's word pool.
  /// Returns an empty NodeRef (ptr == nullptr) if the slot or the node's
  /// infix buffer cannot be allocated — the fallible seam the tree's
  /// commit-or-rollback mutations are built on (kArenaNodeAlloc fault
  /// site).
  NodeRef NewNode(uint32_t dim, uint32_t infix_len, uint32_t postfix_len,
                  bool store_values);

  /// Destroys the node and recycles its slot.
  void DeleteNode(NodeRef ref);

  /// Attaches (or detaches, nullptr) the epoch manager that gates deferred
  /// reclamation. While attached, RetireNode defers the DeleteNode of
  /// unlinked-but-possibly-still-read nodes until every epoch-guarded
  /// reader of the retire epoch has exited.
  void SetEpochManager(EpochManager* epochs);
  EpochManager* epoch_manager() const { return epochs_; }

  /// Retires a node that was just unlinked from the tree by a copy-on-write
  /// publication: without an epoch manager this is DeleteNode; with one the
  /// node is stamped with the current epoch and queued — its memory (slot
  /// and bit-stream words) stays intact and readable until Reclaim proves
  /// no reader can still hold it.
  void RetireNode(NodeRef ref);

  /// Tries to advance the epoch and deletes every retired node whose stamp
  /// is two or more epochs old. Called by writers after each mutation (and
  /// harmless to call any time).
  void Reclaim();

  /// Bytes held by retired-but-not-yet-reclaimed nodes (slot + bit-stream
  /// block). LiveBytes() == reachable-tree bytes + RetiredBytes().
  uint64_t RetiredBytes() const { return retired_bytes_; }
  /// Number of retired-but-not-yet-reclaimed nodes.
  size_t retired_nodes() const { return retired_.size(); }
  /// Total nodes whose deferred DeleteNode has completed.
  uint64_t reclaimed_nodes_total() const { return reclaimed_total_; }

  /// Destroys every outstanding node in O(slabs), without walking the tree:
  /// node destructors are skipped because the only resource a Node owns is
  /// its BitBuffer block, and the word pool is reset wholesale. Slabs are
  /// retained, so refilling the tree is allocation-free until it outgrows
  /// its previous high-water mark.
  void Reset();

  /// Pre-allocates node slabs for at least `n` additional nodes.
  void ReserveNodes(size_t n);

  /// True iff `node` lives in one of this arena's slots. Debug/validation
  /// only: O(slabs).
  bool Owns(const Node* node) const;

  /// Number of nodes currently allocated and not yet deleted.
  size_t live_nodes() const { return live_nodes_; }

  /// Exact bytes reserved from the system: node slabs + word slabs + large
  /// word blocks.
  uint64_t SlabBytes() const;
  /// Exact bytes in use by live nodes: live slots + their buffer blocks.
  uint64_t LiveBytes() const;
  /// Exact recyclable bytes: free node slots + word-pool freelists.
  uint64_t FreeListBytes() const;

 private:
  // A raw, Node-sized and Node-aligned slot. Free slots store the freelist
  // link in their first bytes.
  struct alignas(alignof(Node)) NodeSlot {
    unsigned char bytes[sizeof(Node)];
  };

  /// Claims a free slot and returns its handle.
  NodeHandle TakeSlot();

  /// Mirrors a newly grown node_slabs_ entry into the RCU slab directory,
  /// republishing a larger snapshot array when capacity is exhausted. Old
  /// snapshots are parked until destruction (readers may still load them).
  /// Returns false (directory unchanged) if the grown array allocation
  /// fails.
  bool PublishSlab(NodeSlot* slab);

  /// One deferred-free record; stamps are non-decreasing in queue order.
  struct Retired {
    NodeRef ref;
    uint64_t stamp;
    uint64_t bytes;
  };

  SlabWordPool word_pool_;
  std::vector<std::unique_ptr<NodeSlot[]>> node_slabs_;
  size_t cur_node_slab_ = 0;
  size_t node_slab_off_ = 0;
  /// Free-slot list: head handle, next links stored in slot bytes.
  NodeHandle free_head_ = kInvalidNodeHandle;
  size_t free_node_count_ = 0;
  size_t live_nodes_ = 0;
  /// RCU snapshot of the slab pointer table: readers resolve handles
  /// through this (never through node_slabs_, whose vector buffer moves).
  std::atomic<NodeSlot**> slab_dir_{nullptr};
  std::atomic<uint64_t> slab_count_{0};
  uint64_t slab_dir_capacity_ = 0;
  std::vector<std::unique_ptr<NodeSlot*[]>> old_slab_dirs_;
  /// Epoch-deferred reclamation state (COW/MVCC mode only).
  EpochManager* epochs_ = nullptr;
  std::deque<Retired> retired_;
  uint64_t retired_bytes_ = 0;
  uint64_t reclaimed_total_ = 0;
};

}  // namespace phtree

#endif  // PHTREE_PHTREE_ARENA_H_
