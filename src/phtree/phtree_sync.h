// Thread-safe PH-tree wrapper (paper Sect. 5, third outlook item: "the fact
// that at most two nodes are modified with each update makes the PH-tree
// suitable for concurrent access and updates").
//
// Readers never lock. The wrapped tree runs in MVCC mode (PhTree::
// EnableMvcc): every mutation builds its replacement node(s) off to the
// side and publishes them with ONE atomic child-handle (or root) store, so
// a reader always sees either the whole old state or the whole new state
// of the at-most-two affected nodes. Readers only announce themselves in
// an epoch slot (EpochManager::ReadGuard — two uncontended atomic stores),
// which defers the free of unlinked nodes until every reader that could
// still see them has left. Writers serialise against each other on a plain
// mutex; the paper's two-node update property keeps those critical
// sections short and bounded (O(w*k) plus at most two node allocations).
#ifndef PHTREE_PHTREE_PHTREE_SYNC_H_
#define PHTREE_PHTREE_PHTREE_SYNC_H_

#include <atomic>
#include <cstdint>
#include <optional>
#include <mutex>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "phtree/arena.h"
#include "phtree/cursor.h"
#include "phtree/knn.h"
#include "phtree/phtree.h"
#include "phtree/query.h"
#include "phtree/serialize.h"

namespace phtree {

/// Thread-safe facade over PhTree with wait-free reads. All methods are
/// safe to call from any number of threads concurrently; read-side methods
/// (Find/FindBatch/QueryWindow/CountWindow/QueryWindowPage/KnnSearch/size)
/// never block and never take a lock.
class PhTreeSync {
 public:
  explicit PhTreeSync(uint32_t dim, const PhTreeConfig& config = PhTreeConfig{})
      : tree_(new PhTree(dim, config)) {
    tree_.load(std::memory_order_relaxed)->EnableMvcc(&epochs_);
  }

  ~PhTreeSync() { delete tree_.load(std::memory_order_relaxed); }

  PhTreeSync(const PhTreeSync&) = delete;
  PhTreeSync& operator=(const PhTreeSync&) = delete;

  uint32_t dim() const {
    return tree_.load(std::memory_order_acquire)->dim();
  }

  size_t size() const {
    EpochManager::ReadGuard guard(epochs_);
    return tree_.load(std::memory_order_acquire)->size();
  }

  bool Insert(std::span<const uint64_t> key, uint64_t value) {
    std::lock_guard lock(writer_mutex_);
    return writer_tree()->Insert(key, value);
  }

  bool InsertOrAssign(std::span<const uint64_t> key, uint64_t value) {
    std::lock_guard lock(writer_mutex_);
    return writer_tree()->InsertOrAssign(key, value);
  }

  bool Erase(std::span<const uint64_t> key) {
    std::lock_guard lock(writer_mutex_);
    return writer_tree()->Erase(key);
  }

  /// Relocates the entry at old_key to new_key (see PhTree::Update). One
  /// writer critical section. Readers are not blocked; when the tree falls
  /// back to insert-then-erase internally, a concurrent reader may observe
  /// the one intermediate state in which both keys are present (it never
  /// observes neither).
  UpdateOutcome Update(std::span<const uint64_t> old_key,
                       std::span<const uint64_t> new_key,
                       std::optional<uint64_t> value = std::nullopt) {
    std::lock_guard lock(writer_mutex_);
    return writer_tree()->Update(old_key, new_key, value);
  }

  /// Non-throwing Update (see PhTree::TryUpdate).
  UpdateOutcome TryUpdate(std::span<const uint64_t> old_key,
                          std::span<const uint64_t> new_key,
                          std::optional<uint64_t> value = std::nullopt) {
    std::lock_guard lock(writer_mutex_);
    return writer_tree()->TryUpdate(old_key, new_key, value);
  }

  std::optional<uint64_t> Find(std::span<const uint64_t> key) const {
    EpochManager::ReadGuard guard(epochs_);
    return tree_.load(std::memory_order_acquire)->Find(key);
  }

  bool Contains(std::span<const uint64_t> key) const {
    EpochManager::ReadGuard guard(epochs_);
    return tree_.load(std::memory_order_acquire)->Contains(key);
  }

  /// Batched point query (see PhTree::FindBatch). The whole batch runs
  /// under one epoch guard and against one root snapshot.
  std::vector<std::optional<uint64_t>> FindBatch(
      std::span<const PhKey> keys) const {
    EpochManager::ReadGuard guard(epochs_);
    return tree_.load(std::memory_order_acquire)->FindBatch(keys);
  }

  std::vector<std::pair<PhKey, uint64_t>> QueryWindow(
      std::span<const uint64_t> min, std::span<const uint64_t> max) const {
    EpochManager::ReadGuard guard(epochs_);
    return tree_.load(std::memory_order_acquire)->QueryWindow(min, max);
  }

  size_t CountWindow(std::span<const uint64_t> min,
                     std::span<const uint64_t> max) const {
    EpochManager::ReadGuard guard(epochs_);
    return tree_.load(std::memory_order_acquire)->CountWindow(min, max);
  }

  /// Paginated window query (see PhTree::QueryWindowPage). Each page runs
  /// under its own epoch guard against the root current at that moment —
  /// the resume token keeps the scan stable across mutations between
  /// pages, exactly as in the single-tree case.
  WindowPage QueryWindowPage(std::span<const uint64_t> min,
                             std::span<const uint64_t> max, size_t page_size,
                             std::span<const uint64_t> resume_after = {})
      const {
    EpochManager::ReadGuard guard(epochs_);
    return tree_.load(std::memory_order_acquire)
        ->QueryWindowPage(min, max, page_size, resume_after);
  }

  std::vector<KnnResult> KnnSearch(std::span<const uint64_t> center, size_t n,
                                   KnnMetric metric = KnnMetric::kL2Integer)
      const {
    EpochManager::ReadGuard guard(epochs_);
    return phtree::KnnSearch(*tree_.load(std::memory_order_acquire), center,
                             n, metric);
  }

  /// Structural statistics. Takes the writer mutex: the stats walk reads
  /// arena accounting (freelists, retired queue) that only the writer may
  /// touch, and the retired/live byte invariant only holds while no
  /// mutation is in flight.
  PhTreeStats ComputeStats() const {
    std::lock_guard lock(writer_mutex_);
    return tree_.load(std::memory_order_acquire)->ComputeStats();
  }

  /// Visitor-form window query under an epoch guard — writers proceed
  /// concurrently. The visitor runs inside the guard: keep it short (it
  /// defers memory reclamation, though it blocks no one) and do not call
  /// writer methods of this tree from it on the same thread you would
  /// later join.
  void QueryWindow(
      std::span<const uint64_t> min, std::span<const uint64_t> max,
      const std::function<void(const PhKey&, uint64_t)>& visitor) const {
    EpochManager::ReadGuard guard(epochs_);
    tree_.load(std::memory_order_acquire)->QueryWindow(min, max, visitor);
  }

  /// Direct access to the wrapped tree, WITHOUT synchronisation — only
  /// valid while no other thread mutates it (tests, the structural
  /// validator and the differential harness). Mirrors
  /// PhTreeSharded::UnsafeShard.
  const PhTree& UnsafeTree() const {
    return *tree_.load(std::memory_order_acquire);
  }

  /// The epoch manager readers announce themselves in. Exposed for tests
  /// and stats tooling.
  const EpochManager& epoch_manager() const { return epochs_; }

  /// Saves a v2 snapshot (SavePhTreeOr: checksummed, atomic, durable).
  /// Serialisation happens under the writer mutex (readers are
  /// unaffected); the disk I/O does not — writers are blocked only while
  /// the in-memory byte stream is built.
  Status Save(const std::string& path, const SaveOptions& options = {}) const {
    std::vector<uint8_t> bytes;
    {
      std::lock_guard lock(writer_mutex_);
      bytes = SerializePhTree(*tree_.load(std::memory_order_acquire), options);
    }
    return WriteSnapshotFileOr(bytes, path);
  }

  /// Replaces the tree's whole content from a snapshot (LoadPhTreeOr).
  /// The file is read, verified and deserialised without any lock; the
  /// replacement tree is published with one atomic pointer swap under the
  /// writer mutex, then the old tree is destroyed after a full epoch grace
  /// period (readers still walking it finish on their snapshot). The
  /// snapshot's dimensionality must match (kInvalidArgument otherwise).
  Status Load(const std::string& path, const LoadOptions& options = {}) {
    Expected<PhTree, SnapshotError> loaded = LoadPhTreeOr(path, options);
    if (!loaded) {
      return loaded.error();
    }
    if (loaded->dim() != dim()) {
      return Status::Error(
          StatusCode::kInvalidArgument,
          "snapshot dimensionality " + std::to_string(loaded->dim()) +
              " does not match tree dimensionality " + std::to_string(dim()));
    }
    PhTree* fresh = new PhTree(std::move(*loaded));
    fresh->EnableMvcc(&epochs_);
    PhTree* old = nullptr;
    {
      std::lock_guard lock(writer_mutex_);
      old = tree_.exchange(fresh, std::memory_order_acq_rel);
    }
    // The old tree's destructor resets its whole arena at once — legal
    // only once no reader can still hold a node of it.
    epochs_.SynchronizeFullGrace();
    delete old;
    return Status::Ok();
  }

 private:
  PhTree* writer_tree() { return tree_.load(std::memory_order_relaxed); }

  mutable EpochManager epochs_;
  mutable std::mutex writer_mutex_;
  std::atomic<PhTree*> tree_;
};

}  // namespace phtree

#endif  // PHTREE_PHTREE_PHTREE_SYNC_H_
