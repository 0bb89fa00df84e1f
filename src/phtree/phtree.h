// The PH-tree (PATRICIA-hypercube-tree), the primary contribution of
// T. Zäschke, C. Zimmerli, M. C. Norrie: "The PH-Tree - A Space-Efficient
// Storage Structure and Multi-Dimensional Index", SIGMOD 2014.
//
// This class indexes k-dimensional points of k x 64-bit unsigned integer
// coordinates and maps each point to one 64-bit payload. Floating-point
// coordinates are supported through the order-preserving conversion of
// Sect. 3.3 (see PhTreeD in phtree_d.h).
//
// Complexity (paper Sect. 3.5/3.6, w = 64 bits, k dimensions, n entries):
//   * point query / insert / erase: O(w*k), independent of n,
//   * window query: O(w*k) per returned entry in the best case,
//   * structure is independent of insertion order; updates touch at most
//     two nodes.
#ifndef PHTREE_PHTREE_PHTREE_H_
#define PHTREE_PHTREE_PHTREE_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <tuple>
#include <vector>

#include "phtree/arena.h"
#include "phtree/config.h"
#include "phtree/node.h"
#include "phtree/stats.h"

namespace phtree {

/// A k-dimensional point key. Dimensionality is fixed per tree.
using PhKey = std::vector<uint64_t>;

/// One key -> payload pair, the bulk-load input unit.
struct PhEntry {
  PhKey key;
  uint64_t value = 0;
};

/// Outcome of a fallible mutation. Every mutation is commit-or-rollback:
/// kNoMem means an allocation failed and the tree is bit-identical to its
/// pre-call state (the op may simply be retried).
enum class OpStatus : uint8_t {
  kApplied,  ///< the mutation took effect (inserted / erased)
  kNoop,     ///< nothing to do (duplicate insert / missing erase key)
  kNoMem,    ///< allocation failed; the tree is unchanged
};

/// Outcome of an Update(old_key, new_key) relocation. The composite it is
/// observably equivalent to is: Find(old) / check Find(new) / Erase(old) /
/// Insert(new) — with the old-missing check taking precedence over the
/// new-occupied check.
enum class UpdateOutcome : uint8_t {
  kMoved,        ///< the entry now lives at new_key
  kOldMissing,   ///< old_key is not stored; tree unchanged
  kNewOccupied,  ///< a different entry already holds new_key; tree unchanged
  kNoMem,        ///< allocation failed; tree unchanged (TryUpdate only)
};

/// Human-readable UpdateOutcome, for test diagnostics.
inline const char* UpdateOutcomeName(UpdateOutcome outcome) {
  switch (outcome) {
    case UpdateOutcome::kMoved:
      return "kMoved";
    case UpdateOutcome::kOldMissing:
      return "kOldMissing";
    case UpdateOutcome::kNewOccupied:
      return "kNewOccupied";
    case UpdateOutcome::kNoMem:
      return "kNoMem";
  }
  return "?";
}

/// Cumulative counters of how Update moves were executed (per tree).
struct PhUpdateStats {
  uint64_t fast_path = 0;  ///< in-node moves (one node rewritten)
  uint64_t fallback = 0;   ///< erase+insert fallbacks (structural moves)
};

struct WindowPage;  // one page of a paginated window scan (cursor.h)

class PhTree {
 public:
  /// Creates an empty tree for `dim`-dimensional keys (1 <= dim <= 63).
  explicit PhTree(uint32_t dim, const PhTreeConfig& config = PhTreeConfig{});
  ~PhTree();

  PhTree(PhTree&& other) noexcept;
  PhTree& operator=(PhTree&& other) noexcept;
  PhTree(const PhTree&) = delete;
  PhTree& operator=(const PhTree&) = delete;

  uint32_t dim() const { return dim_; }
  size_t size() const { return size_.load(std::memory_order_relaxed); }
  bool empty() const { return size() == 0; }
  const PhTreeConfig& config() const { return config_; }

  /// Switches this tree into MVCC mode: each mutation publishes its
  /// replacement node with one atomic child-handle or root store, and
  /// replaced nodes are retired through `epochs` instead of freed at once,
  /// so concurrent readers holding an EpochManager::ReadGuard may traverse
  /// lock-free while one writer mutates. Call before any concurrent use.
  /// Plain trees (the default) run the same edits: in both modes every
  /// structural mutation writes the edited node into a new block and never
  /// writes a published node before linking it.
  void EnableMvcc(EpochManager* epochs);
  bool mvcc_enabled() const {
    return arena_ != nullptr && arena_->epoch_manager() != nullptr;
  }

  /// Inserts `key` -> `value`. Returns false (and stores nothing) if the key
  /// already exists — the PH-tree stores no duplicates (paper Sect. 3.6).
  /// Throws std::bad_alloc if storage cannot be allocated; the tree is
  /// unchanged (strong exception safety — see TryInsert).
  bool Insert(std::span<const uint64_t> key, uint64_t value);

  /// Inserts or overwrites. Returns true if the key was newly inserted.
  /// Throws std::bad_alloc with the tree unchanged on allocation failure.
  bool InsertOrAssign(std::span<const uint64_t> key, uint64_t value);

  /// Non-throwing Insert: kApplied if inserted, kNoop on duplicate, kNoMem
  /// (tree unchanged) if any allocation along the update path failed. An
  /// update touches at most two nodes (paper Sect. 3.6); both are either
  /// fully updated or left bit-identical to their pre-call state.
  OpStatus TryInsert(std::span<const uint64_t> key, uint64_t value);

  /// Non-throwing InsertOrAssign: kApplied if newly inserted, kNoop if an
  /// existing entry was (possibly) overwritten, kNoMem (tree unchanged) on
  /// allocation failure. Payload overwrite itself never allocates.
  OpStatus TryInsertOrAssign(std::span<const uint64_t> key, uint64_t value);

  /// Stores all `entries` with Insert semantics (of equal keys the first
  /// in `entries` keeps its payload). Returns the number of newly inserted
  /// entries. An empty tree is built bottom-up: the entries are z-sorted
  /// (stably) and every node is written once at its final size
  /// (ZOrderBuilder, builder.h); that is all or nothing — on an allocation
  /// failure every built node is freed, the tree stays empty and
  /// std::bad_alloc propagates. A non-empty tree inserts the entries in
  /// order, each atomically; if an allocation fails the inserted prefix
  /// remains and std::bad_alloc propagates.
  size_t BulkLoad(std::span<const PhEntry> entries);

  /// Point query (paper Sect. 3.5): returns the payload if `key` is stored.
  std::optional<uint64_t> Find(std::span<const uint64_t> key) const;

  /// Point query without payload retrieval.
  bool Contains(std::span<const uint64_t> key) const {
    return Find(key).has_value();
  }

  /// Batched point query: element i of the result is Find(keys[i])
  /// (std::nullopt for absent keys; duplicate keys each get the shared
  /// answer). Runs Find's descent over the z-order-sorted batch against
  /// one root snapshot: each key resumes it at the deepest node of the
  /// previous key's path that both keys reach (shared-prefix resumption),
  /// and the next key's coordinates are prefetched one step ahead.
  std::vector<std::optional<uint64_t>> FindBatch(
      std::span<const PhKey> keys) const;

  /// Removes `key`. Returns false if it was not present. Modifies at most
  /// two nodes (paper Sect. 3.6). Throws std::bad_alloc with the tree
  /// unchanged if the post-removal restructuring cannot allocate.
  bool Erase(std::span<const uint64_t> key);

  /// Non-throwing Erase: kApplied if removed, kNoop if absent, kNoMem (tree
  /// unchanged) on allocation failure. Every removal but that of the last
  /// entry writes an edited node (the shrunken node, the merged parent or
  /// the spliced grandchild) into a new block, so any of them can fail.
  OpStatus TryErase(std::span<const uint64_t> key);

  /// Moves the entry at `old_key` to `new_key`, keeping its payload unless
  /// `value` overrides it. Descends once to the deepest node whose subtree
  /// contains both keys (the first differing bit, found by XOR like
  /// FindBatch's shared-prefix resumption) and rewrites that one node when
  /// the move stays inside it — the moving-objects fast path; otherwise
  /// falls back to insert+erase (at most two nodes each, paper Sect. 3.6).
  /// old_key == new_key is a payload rewrite (kMoved) and never allocates.
  /// Every other move writes at least one node into a new block, on a
  /// plain tree too, so it can run out of memory: Update then throws
  /// std::bad_alloc with the tree unchanged.
  UpdateOutcome Update(std::span<const uint64_t> old_key,
                       std::span<const uint64_t> new_key,
                       std::optional<uint64_t> value = std::nullopt);

  /// Non-throwing Update: like Update but reports allocation failure as
  /// kNoMem with the tree unchanged (commit-or-rollback, like every Try*
  /// mutation — fault-injection safe).
  UpdateOutcome TryUpdate(std::span<const uint64_t> old_key,
                          std::span<const uint64_t> new_key,
                          std::optional<uint64_t> value = std::nullopt);

  /// Counters of Update executions split by strategy (never reset by
  /// mutations; moves transfer them with the tree).
  const PhUpdateStats& update_stats() const { return update_stats_; }

  /// Removes all entries. This is an O(slabs) arena reset — no tree walk,
  /// no per-node free — and the slabs are kept warm for refilling. An MVCC
  /// tree instead unpublishes the root and retires every node.
  void Clear();

  /// Calls `fn(key, value)` for every stored entry, in z-order (ascending
  /// hypercube-address order at every node).
  void ForEach(
      const std::function<void(const PhKey&, uint64_t)>& fn) const;

  /// Collects all entries inside the axis-aligned box [min, max] (inclusive
  /// on both corners, per dimension). Convenience eager form of the window
  /// query; TreeCursor (cursor.h) is the lazy, resumable form.
  std::vector<std::pair<PhKey, uint64_t>> QueryWindow(
      std::span<const uint64_t> min, std::span<const uint64_t> max) const;

  /// Visitor form of the window query: calls `visitor(key, value)` for
  /// every entry inside [min, max], in z-order. The PhKey reference points
  /// at a buffer reused across calls — copy it to keep it. This is the
  /// hot-loop form: no result vector, no per-result PhKey heap allocation;
  /// CountWindow, the sharded fan-out and the benchmark adapters use it.
  void QueryWindow(
      std::span<const uint64_t> min, std::span<const uint64_t> max,
      const std::function<void(const PhKey&, uint64_t)>& visitor) const;

  /// Number of entries inside the box [min, max] without materialising them.
  size_t CountWindow(std::span<const uint64_t> min,
                     std::span<const uint64_t> max) const;

  /// Paginated window query: up to `page_size` in-window entries strictly
  /// z-after `resume_after` (empty span = from the start of the window),
  /// plus an exact has-more flag and the resume token for the next page.
  /// Tokens are plain keys and stay stable across mutations between pages;
  /// see WindowPage / TreeCursor in cursor.h.
  WindowPage QueryWindowPage(
      std::span<const uint64_t> min, std::span<const uint64_t> max,
      size_t page_size, std::span<const uint64_t> resume_after = {}) const;

  /// Walks the tree and computes structural statistics (node counts, memory
  /// bytes, depths). O(nodes).
  PhTreeStats ComputeStats() const;

  /// Root node accessor for iterators/tests; nullptr when empty. The
  /// acquire load pairs with the release store in SetRoot so an MVCC
  /// reader that observes a freshly published root also observes its
  /// contents; for plain trees it costs nothing on mainstream targets.
  const Node* root() const {
    return root_ptr_.load(std::memory_order_acquire);
  }

  /// The arena owning every node of this tree. Stable address for the
  /// tree's lifetime (moves transfer ownership of the same arena object);
  /// null only for a moved-from tree. Iterators and the validator use it
  /// for pointer-provenance checks.
  const NodeArena* arena() const { return arena_.get(); }

 private:
  friend class PhTreeSharded;
  friend class PhTreeValidator;
  friend class ZOrderBuilder;

  /// A key of a FindBatch batch: its position and its visit-order sort
  /// key (shard, z-sample, position). Sorting groups a sharded batch into
  /// one run per shard; a plain tree's keys all sit in shard 0.
  struct BatchSlot {
    uint32_t shard;
    uint32_t index;
    uint64_t sample;
    bool operator<(const BatchSlot& o) const {
      return std::tie(shard, sample, index) <
             std::tie(o.shard, o.sample, o.index);
    }
  };
  /// Looks up keys[slot.index] into results[slot.index] for each slot of
  /// `run`, in run order, against one root snapshot: FindBatch's resumed
  /// descent over an index span.
  void FindRun(std::span<const PhKey> keys, std::span<const BatchSlot> run,
               std::optional<uint64_t>* results) const;

  // ---- The mutation engine (phtree.cc) ------------------------------------

  /// One level of a recorded descent: `ord` is the sub entry of `node` the
  /// descent followed — the slot a replacement child gets published to.
  struct Frame {
    NodeRef node;
    uint64_t ord;
  };
  /// Where a descent along one key leaves the tree, plus its path.
  struct Descent;
  /// Per-call record of the nodes one mutation creates and replaces; its
  /// calls hide whether replaced nodes are freed (plain) or retired (MVCC).
  class Mutation;

  /// Descends along `key` from `node` (the root, or a node of d->path's
  /// last descent that `key` also reaches), appending each node it
  /// passes through to d->path. The tree's only key descent: Find,
  /// FindBatch and every mutation run it.
  void Descend(NodeRef node, std::span<const uint64_t> key,
               Descent* d) const;
  /// The acquire-loaded root (see root()) as a descent start. A reader
  /// never publishes, so the root's handle, which only a mutation's
  /// publication needs, is left unset.
  NodeRef ReadRoot() const {
    return NodeRef{root_ptr_.load(std::memory_order_acquire),
                   kInvalidNodeHandle};
  }
  OpStatus InsertEntry(std::span<const uint64_t> key, uint64_t value,
                       bool assign);
  OpStatus EraseEntry(std::span<const uint64_t> key);
  UpdateOutcome MoveEntry(std::span<const uint64_t> old_key,
                          std::span<const uint64_t> new_key,
                          std::optional<uint64_t> value);
  void RetireSubtree(NodeRef node);
  void StatsRec(const Node* node, size_t depth, PhTreeStats* stats) const;

  /// Publishes root_/root_ptr_ together; the release store is the MVCC
  /// root publication point.
  void SetRoot(NodeRef r) {
    root_ = r;
    root_ptr_.store(r.ptr, std::memory_order_release);
  }

  uint32_t dim_;
  PhTreeConfig config_;
  std::atomic<size_t> size_{0};
  PhUpdateStats update_stats_;
  NodeRef root_;
  /// Mirror of root_.ptr for lock-free readers (root_ itself also carries
  /// the handle, which only the writer needs).
  std::atomic<Node*> root_ptr_{nullptr};
  // unique_ptr, not by-value: Node pointers resolved from handles point
  // into the arena's slabs, so the arena object must keep its address
  // across PhTree moves.
  std::unique_ptr<NodeArena> arena_;
};

}  // namespace phtree

#endif  // PHTREE_PHTREE_PHTREE_H_
