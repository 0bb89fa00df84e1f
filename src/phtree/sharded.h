// Sharded concurrent PH-tree (paper Sect. 5, third outlook item). The class
// partitions the key space by the top bits of the z-interleaved address
// into S = 2^b shards; S = 1 is the plain thread-safe tree (PhTreeSync,
// phtree_sync.h). Each shard is an independent PhTree with its own
// NodeArena and its own writer mutex; all shards share ONE EpochManager
// and run in MVCC mode (PhTree::EnableMvcc), so:
//   * readers never lock anywhere — point, window and kNN reads announce
//     themselves in an epoch slot and walk copy-on-write-published nodes,
//   * writers on different shards never contend (the paper's two-node
//     update property keeps each per-shard critical section short),
//   * bulk loads partition the input once and build all shards in
//     parallel on a ThreadPool (an empty shard bottom-up, builder.h),
//   * window/count queries clip the query against each shard's key-space
//     region and fan out only to the shards that intersect; kNN is one
//     best-first search seeded with every shard's root at its region's
//     distance (knn.h), so it opens only the shards it needs.
//
// Shard routing. The PH-tree orders keys by their bit-interleaved
// z-address: level 0 is the k-bit hypercube address formed from bit 63 of
// every dimension, level 1 from bit 62, and so on. Shard index = the top b
// bits of that z-address (bit 63 of dim 0, bit 63 of dim 1, ..., then bit
// 62 of dim 0, ...). Consequences:
//   * each shard owns a contiguous z-order range, i.e. an axis-aligned box
//     of the key space (dimension d has its top ceil/floor(b/k) bits
//     fixed), which is what makes query clipping exact;
//   * ascending shard index == ascending z-address, so concatenating
//     per-shard window results in shard order yields the same global
//     z-order that a single PhTree's window scan produces.
// Routing modes. Z-prefix routing makes every shard an axis-aligned box,
// which buys exact query clipping, kNN shard bounds and ordered merges —
// but its balance is the balance of the top key bits. That is perfect for
// keys spread over the full 64-bit space and terrible for IEEE-encoded
// doubles in a narrow range (uniform [0,1)^k data shares its sign and
// exponent bits, so EVERY point routes to one shard). For such workloads
// ShardRouting::kHash routes by a mixed hash of the whole key: balance
// becomes distribution-independent, at the price of fan-out — every shard
// region is the whole space, so window queries visit all S shards, window
// results are k-way z-merged instead of concatenated, and kNN seeds every
// shard root at distance 0. DESIGN.md quantifies the trade-off; pick
// kZPrefix for integer/full-range keys, kHash for write-heavy double
// workloads.
//
// Thread pool. Every parallel fan-out (bulk load, snapshot load, window
// and count queries) hands the pool at most S tasks (one per shard, or per
// intersecting shard), and a fan-out of one task runs inline on the
// caller; point reads and kNN run on the caller alone. A one-shard tree therefore never uses a pool: it
// does not even resolve ThreadPool::Shared(), so it starts no threads.
//
// Consistency model: operations are linearisable per shard, not across
// shards. A query that fans out over multiple shards sees each shard at a
// (possibly different) consistent point in time; size() is a sum of
// per-shard snapshots. Save() takes all writer mutexes together and is
// the one cross-shard consistent snapshot primitive.
#ifndef PHTREE_PHTREE_SHARDED_H_
#define PHTREE_PHTREE_SHARDED_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/thread_pool.h"
#include "phtree/arena.h"
#include "phtree/cursor.h"
#include "phtree/knn.h"
#include "phtree/phtree.h"
#include "phtree/serialize.h"

namespace phtree {

// PhEntry (the bulk-load input unit) lives in phtree/phtree.h, next to
// PhTree::BulkLoad.

/// How keys are assigned to shards (see the file comment).
enum class ShardRouting : uint8_t {
  /// Top log2(S) bits of the z-interleaved address. Shards are axis-aligned
  /// boxes: queries clip, kNN bounds shards by distance, merges are
  /// ordered concatenation.
  kZPrefix,
  /// Mixed hash of all key words. Distribution-independent balance; every
  /// query visits all shards and window results are z-merged.
  kHash,
};

// ZOrderLess (the z-interleaved comparison the sharded merge is built on)
// lives in common/bits.h, next to the other z-order primitives.

/// Lock-striped sharded PH-tree. All public methods are safe to call from
/// any number of threads concurrently.
class PhTreeSharded {
 public:
  /// Creates `num_shards` (a power of two, >= 1) empty shards for
  /// `dim`-dimensional keys. Parallel bulk loads and query fan-outs run on
  /// `pool` (not owned; must outlive the tree); nullptr uses the
  /// process-wide ThreadPool::Shared() when num_shards > 1 (one shard
  /// needs no pool).
  explicit PhTreeSharded(uint32_t dim, uint32_t num_shards = 8,
                         ShardRouting routing = ShardRouting::kZPrefix,
                         const PhTreeConfig& config = PhTreeConfig{},
                         ThreadPool* pool = nullptr);

  uint32_t dim() const { return dim_; }
  uint32_t num_shards() const { return static_cast<uint32_t>(shards_.size()); }
  ShardRouting routing() const { return routing_; }
  const PhTreeConfig& config() const { return config_; }

  /// Sum of per-shard sizes (lock-free atomic reads under one epoch
  /// guard); the total is not a single cross-shard snapshot.
  size_t size() const;
  bool empty() const { return size() == 0; }

  /// Shard index for `key`: its top `log2(num_shards)` z-interleaved bits
  /// (kZPrefix) or a mixed hash of all its words (kHash).
  uint32_t ShardOf(std::span<const uint64_t> key) const;

  // ---- Point operations (single-shard critical sections) ---------------

  bool Insert(std::span<const uint64_t> key, uint64_t value);
  bool InsertOrAssign(std::span<const uint64_t> key, uint64_t value);
  bool Erase(std::span<const uint64_t> key);

  /// Relocates the entry at old_key to new_key (see PhTree::Update). When
  /// both keys route to the same shard this is one per-shard critical
  /// section delegating to the tree's single-descent fast path; a
  /// cross-shard move locks both shards (in ascending index order, the
  /// deadlock-free total order) and performs insert-then-erase with the
  /// same rollback guarantees. Atomic with respect to every other operation
  /// on the involved shards. Throws std::bad_alloc, trees unchanged, on
  /// allocation failure.
  UpdateOutcome Update(std::span<const uint64_t> old_key,
                       std::span<const uint64_t> new_key,
                       std::optional<uint64_t> value = std::nullopt);

  /// Non-throwing Update: allocation failure is kNoMem, trees unchanged.
  UpdateOutcome TryUpdate(std::span<const uint64_t> old_key,
                          std::span<const uint64_t> new_key,
                          std::optional<uint64_t> value = std::nullopt);
  std::optional<uint64_t> Find(std::span<const uint64_t> key) const;
  bool Contains(std::span<const uint64_t> key) const {
    return Find(key).has_value();
  }

  /// Batched point query: element i is Find(keys[i]). The batch is sorted
  /// once by (shard, z-sample); each shard's run then takes PhTree's
  /// resumed descent (PhTree::FindBatch) over its span of batch indices,
  /// answering in place — lock-free, one epoch guard covers the whole
  /// batch, and the heap allocations (the result and the sort order) do
  /// not grow with the shard count.
  std::vector<std::optional<uint64_t>> FindBatch(
      std::span<const PhKey> keys) const;

  /// Clears every shard (per-shard O(slabs) arena reset).
  void Clear();

  // ---- Bulk load --------------------------------------------------------

  /// Inserts all `entries`, partitioning them by shard in one pass and
  /// building every shard in parallel on the pool (each build task holds
  /// only its own shard's writer lock). Duplicate keys follow Insert
  /// semantics: first occurrence wins, later ones are dropped. Returns the
  /// number of newly inserted entries. Each shard follows
  /// PhTree::BulkLoad: an empty shard is z-sorted and built bottom-up,
  /// then published with one root store, so readers see all of its batch
  /// or none; a non-empty shard inserts entry by entry. On an allocation
  /// failure an empty shard stays empty and a non-empty one keeps its
  /// inserted prefix; std::bad_alloc propagates once every shard has
  /// finished.
  size_t BulkLoad(std::span<const PhEntry> entries);

  // ---- Window queries (clip + fan out + merge) --------------------------

  /// Entries inside [min, max], globally z-ordered (the same sequence a
  /// single PhTree would produce). Shards that intersect the box are
  /// queried in parallel; with kZPrefix routing the per-shard z-ordered
  /// results are simply concatenated in shard order (which IS z-order
  /// across shards), with kHash they are z-merged.
  std::vector<std::pair<PhKey, uint64_t>> QueryWindow(
      std::span<const uint64_t> min, std::span<const uint64_t> max) const;

  /// Visitor form: calls `visitor(key, value)` for every entry in the box
  /// without materialising results, running serially shard by shard (the
  /// visitor is user code — it is never called from pool threads). The
  /// sequence is globally z-ordered with kZPrefix routing; with kHash it
  /// is z-ordered only within each shard's run.
  void QueryWindow(
      std::span<const uint64_t> min, std::span<const uint64_t> max,
      const std::function<void(const PhKey&, uint64_t)>& visitor) const;

  /// Number of entries inside [min, max]; intersecting shards count in
  /// parallel.
  size_t CountWindow(std::span<const uint64_t> min,
                     std::span<const uint64_t> max) const;

  /// Paginated window query with the same page/token semantics as
  /// PhTree::QueryWindowPage, globally z-ordered across shards. With
  /// kZPrefix routing the page fills shard by shard (ascending shard index
  /// is ascending z-order); with kHash every shard contributes its first
  /// candidates after the token and the union is z-merged and truncated.
  /// Reads are lock-free — the token keeps the scan stable across
  /// mutations between pages, exactly as in the single-tree case.
  WindowPage QueryWindowPage(std::span<const uint64_t> min,
                             std::span<const uint64_t> max, size_t page_size,
                             std::span<const uint64_t> resume_after = {})
      const;

  // ---- kNN (one best-first search over every shard) ---------------------

  /// The `n` entries closest to `center`, ascending by distance with exact
  /// ties in z-order — element for element the single-tree KnnSearch over
  /// the same entries. One best-first queue (knn.h) is seeded, under one
  /// epoch guard, with every non-empty shard's root at the distance of its
  /// region; a shard is opened only when that bound reaches the front, so
  /// shards that cannot hold one of the n nearest are never searched.
  std::vector<KnnResult> KnnSearch(
      std::span<const uint64_t> center, size_t n,
      KnnMetric metric = KnnMetric::kL2Integer) const;

  // ---- Introspection ----------------------------------------------------

  /// Calls `fn(key, value)` for every entry, shards visited in index order
  /// under one epoch guard (lock-free). Global z-order with kZPrefix
  /// routing; per-shard z-order with kHash.
  void ForEach(const std::function<void(const PhKey&, uint64_t)>& fn) const;

  /// Aggregated stats: additive fields summed over shards, max_depth the
  /// maximum, epoch the shared EpochManager's current epoch. Takes each
  /// shard's writer mutex in turn (the stats walk reads arena accounting
  /// only the writer side may touch); no cross-shard snapshot.
  PhTreeStats ComputeStats() const;

  /// The axis-aligned key-space box owned by shard `s`: on return,
  /// lo[d]/hi[d] are the smallest/largest coordinate of dimension d that
  /// routes to `s`. Used by tests and the design doc example (queries use
  /// RegionInto). With kHash routing every shard's region is the whole key
  /// space.
  void ShardRegion(uint32_t s, PhKey* lo, PhKey* hi) const;

  /// Direct access to shard `s`'s tree, WITHOUT synchronisation — only
  /// valid while no other thread mutates the tree (tests, validation,
  /// stats tooling).
  const PhTree& UnsafeShard(uint32_t s) const {
    return *shards_[s]->tree.load(std::memory_order_acquire);
  }

  /// The epoch manager all shards share. Exposed for tests and stats
  /// tooling.
  const EpochManager& epoch_manager() const { return epochs_; }

  // ---- Persistence (one z-ordered stream; see DESIGN.md) ---------------

  /// Saves all shards as ONE format-v2 snapshot, atomically and durably
  /// like SavePhTreeOr. The snapshot is taken under every shard's writer
  /// mutex (in index order); lock-free readers are unaffected and the disk
  /// I/O runs after the locks are released. The shards' scans stream to
  /// one SnapshotWriter in global z-order — concatenated under kZPrefix,
  /// S-way merged under kHash — so the bytes equal those of an unsharded
  /// tree with the same content, and no merged copy of the tree is built.
  Status Save(const std::string& path, const SaveOptions& options = {}) const;

  /// Replaces the whole content from a v2 snapshot written by Save() or by
  /// SavePhTreeOr on a plain tree. The stream is read and verified once,
  /// off-line, by SnapshotReader, whose sink routes each verified entry
  /// by ShardOf into its shard's rows (they stay in z-order under either
  /// routing), and every replacement shard is built bottom-up in
  /// parallel (builder.h). With options.validate_structure each built
  /// shard must pass ValidatePhTree (kStructureInvalid otherwise). Then
  /// all writer mutexes are taken and the shard trees swapped in with one
  /// atomic pointer store each; the displaced trees are destroyed after a
  /// full epoch grace period, so in-flight lock-free readers finish on
  /// their snapshot. The stream's dimensionality must match
  /// (kInvalidArgument otherwise); the stream's stored config replaces
  /// this tree's config, like LoadPhTreeOr. On an allocation failure
  /// std::bad_alloc propagates and the shards are unchanged.
  Status Load(const std::string& path, const LoadOptions& options = {});

 private:
  struct Shard {
    mutable std::mutex mutex;  // writers only; readers go lock-free
    std::atomic<PhTree*> tree;
    Shard(uint32_t dim, const PhTreeConfig& config, EpochManager* epochs)
        : tree(new PhTree(dim, config)) {
      tree.load(std::memory_order_relaxed)->EnableMvcc(epochs);
    }
    ~Shard() { delete tree.load(std::memory_order_relaxed); }
    Shard(const Shard&) = delete;
    Shard& operator=(const Shard&) = delete;
    /// The tree, from under the shard's writer mutex.
    PhTree* writer() { return tree.load(std::memory_order_relaxed); }
    /// The tree, from a lock-free reader under an epoch guard.
    const PhTree* reader() const {
      return tree.load(std::memory_order_acquire);
    }
  };

  /// Runs fn(0) .. fn(n - 1) on the pool; n <= 1 runs inline, which keeps
  /// a one-shard tree (whose pool_ may be null) off the pool.
  void ParallelFor(size_t n, const std::function<void(size_t)>& fn) const;

  /// True iff shard `s`'s region intersects the box [min, max].
  bool ShardIntersects(uint32_t s, std::span<const uint64_t> min,
                       std::span<const uint64_t> max) const;

  /// ShardRegion into dim() words at `lo` and `hi` (no allocation).
  void RegionInto(uint32_t s, uint64_t* lo, uint64_t* hi) const;

  uint32_t dim_;
  uint32_t shard_bits_;  // log2(num_shards)
  ShardRouting routing_;
  PhTreeConfig config_;
  ThreadPool* pool_;  // null only for a one-shard tree built without a pool
  // One epoch manager for ALL shards: a reader announces itself once per
  // API call, however many shards the operation fans out to. Declared
  // before shards_ so it outlives every shard's arena.
  mutable EpochManager epochs_;
  // unique_ptr: Shard is neither movable nor copyable (mutex + atomic),
  // and the indirection keeps shards on separate cache lines.
  std::vector<std::unique_ptr<Shard>> shards_;
};

}  // namespace phtree

#endif  // PHTREE_PHTREE_SHARDED_H_
