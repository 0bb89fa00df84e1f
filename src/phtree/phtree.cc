#include "phtree/phtree.h"

#include <algorithm>
#include <cassert>
#include <new>
#include <utility>

#include "common/bits.h"
#include "common/fault.h"
#include "common/simd.h"
#include "phtree/builder.h"
#include "phtree/cursor.h"

namespace phtree {
namespace {

/// Stack scratch space for one key; the tree never exceeds kMaxDims.
struct KeyBuf {
  uint64_t data[kMaxDims];
  std::span<uint64_t> span(uint32_t dim) { return {data, dim}; }
};

void CopyKey(std::span<const uint64_t> src, std::span<uint64_t> dst) {
  for (size_t i = 0; i < src.size(); ++i) {
    dst[i] = src[i];
  }
}

/// A fixed-capacity stack whose slots start uninitialised. Every mutation
/// keeps its descent path and node lists on the stack; value-initialising
/// kBitWidth-deep arrays of node references on each call would cost more
/// than the typical one-node edit.
template <typename T, size_t N>
class FixedStack {
 public:
  FixedStack() {}  // leaves items_ uninitialised
  void push_back(const T& v) {
    assert(size_ < N);
    new (&items_[size_++]) T(v);
  }
  void pop_back() {
    assert(size_ > 0);
    --size_;
  }
  T& back() {
    assert(size_ > 0);
    return items_[size_ - 1];
  }
  T* begin() { return items_; }
  T* end() { return items_ + size_; }
  const T* begin() const { return items_; }
  const T* end() const { return items_ + size_; }
  size_t size() const { return size_; }

 private:
  union {
    T items_[N];
  };
  size_t size_ = 0;
};

/// Runs one mutation of the engine. Under MVCC the writer pins the epoch
/// too — the advance scan's load of this slot's exit store is what orders
/// the publication before any later reclamation (see EpochManager) — and
/// each mutation ends with a reclamation pass.
template <typename Fn>
auto WriteScope(NodeArena* arena, Fn&& fn) {
  EpochManager* epochs = arena != nullptr ? arena->epoch_manager() : nullptr;
  if (epochs == nullptr) {
    return fn();
  }
  const auto result = [&] {
    EpochManager::ReadGuard guard(*epochs);
    return fn();
  }();
  arena->Reclaim();
  return result;
}

}  // namespace

PhTree::PhTree(uint32_t dim, const PhTreeConfig& config)
    : dim_(dim), config_(config), arena_(std::make_unique<NodeArena>()) {
  assert(dim >= 1 && dim <= kMaxDims);
}

// Destruction is never concurrent with readers (wrappers quiesce through
// the epoch manager before deleting a tree), so even an MVCC tree tears
// down with the arena's wholesale O(slabs) release.
PhTree::~PhTree() = default;

PhTree::PhTree(PhTree&& other) noexcept
    : dim_(other.dim_),
      config_(other.config_),
      size_(other.size_.load(std::memory_order_relaxed)),
      update_stats_(other.update_stats_),
      root_(other.root_),
      root_ptr_(other.root_.ptr),
      arena_(std::move(other.arena_)) {
  // The arena object (and with it every node block) changes owner but
  // not address, so all internal pointers and handles stay valid.
  other.root_ = NodeRef{};
  other.root_ptr_.store(nullptr, std::memory_order_relaxed);
  other.size_.store(0, std::memory_order_relaxed);
  other.update_stats_ = PhUpdateStats{};
}

PhTree& PhTree::operator=(PhTree&& other) noexcept {
  if (this != &other) {
    // Replacing the arena releases the old tree wholesale; moves are never
    // concurrent with readers of *this.
    dim_ = other.dim_;
    config_ = other.config_;
    size_.store(other.size_.load(std::memory_order_relaxed),
                std::memory_order_relaxed);
    update_stats_ = other.update_stats_;
    root_ = other.root_;
    root_ptr_.store(other.root_.ptr, std::memory_order_relaxed);
    arena_ = std::move(other.arena_);
    other.root_ = NodeRef{};
    other.root_ptr_.store(nullptr, std::memory_order_relaxed);
    other.size_.store(0, std::memory_order_relaxed);
    other.update_stats_ = PhUpdateStats{};
  }
  return *this;
}

void PhTree::EnableMvcc(EpochManager* epochs) {
  assert(arena_ != nullptr);
  assert(epochs != nullptr);
  arena_->SetEpochManager(epochs);
}

void PhTree::Clear() {
  const NodeRef old_root = root_;
  SetRoot(NodeRef{});
  size_.store(0, std::memory_order_relaxed);
  if (!mvcc_enabled()) {
    // O(slabs): drop every node block wholesale; no tree walk.
    if (arena_ != nullptr) {
      arena_->Reset();
    }
    return;
  }
  // Readers may be traversing: the root was unpublished atomically above;
  // retire the whole subtree through the epoch queue instead of the
  // wholesale reset (which would recycle slots under the readers).
  if (old_root) {
    EpochManager::ReadGuard guard(*arena_->epoch_manager());
    RetireSubtree(old_root);
  }
  arena_->Reclaim();
}

void PhTree::RetireSubtree(NodeRef node) {
  for (uint64_t ord = node.ptr->FirstOrdinal(); ord != Node::kNoOrdinal;
       ord = node.ptr->NextOrdinal(ord)) {
    if (node.ptr->OrdinalIsSub(ord)) {
      const NodeHandle ch = node.ptr->OrdinalSub(ord);
      RetireSubtree(NodeRef{arena_->NodeAt(ch), ch});
    }
  }
  arena_->RetireNode(node);
}

bool PhTree::Insert(std::span<const uint64_t> key, uint64_t value) {
  const OpStatus st = TryInsert(key, value);
  if (st == OpStatus::kNoMem) {
    throw std::bad_alloc();
  }
  return st == OpStatus::kApplied;
}

bool PhTree::InsertOrAssign(std::span<const uint64_t> key, uint64_t value) {
  const OpStatus st = TryInsertOrAssign(key, value);
  if (st == OpStatus::kNoMem) {
    throw std::bad_alloc();
  }
  return st == OpStatus::kApplied;
}

OpStatus PhTree::TryInsert(std::span<const uint64_t> key, uint64_t value) {
  assert(key.size() == dim_);
  return WriteScope(arena_.get(),
                    [&] { return InsertEntry(key, value, /*assign=*/false); });
}

OpStatus PhTree::TryInsertOrAssign(std::span<const uint64_t> key,
                                   uint64_t value) {
  assert(key.size() == dim_);
  return WriteScope(arena_.get(),
                    [&] { return InsertEntry(key, value, /*assign=*/true); });
}

size_t PhTree::BulkLoad(std::span<const PhEntry> entries) {
  if (!empty()) {
    size_t inserted = 0;
    for (const PhEntry& e : entries) {
      if (Insert(e.key, e.value)) {
        ++inserted;
      }
    }
    return inserted;
  }
  std::vector<uint64_t> keys;
  std::vector<uint64_t> values;
  keys.reserve(entries.size() * dim_);
  values.reserve(entries.size());
  for (const PhEntry& e : entries) {
    assert(e.key.size() == dim_);
    keys.insert(keys.end(), e.key.begin(), e.key.end());
    values.push_back(e.value);
  }
  return BuildFromRows(this, keys, values, ZOrderPermutation(keys, dim_));
}

bool PhTree::Erase(std::span<const uint64_t> key) {
  const OpStatus st = TryErase(key);
  if (st == OpStatus::kNoMem) {
    throw std::bad_alloc();
  }
  return st == OpStatus::kApplied;
}

OpStatus PhTree::TryErase(std::span<const uint64_t> key) {
  assert(key.size() == dim_);
  return WriteScope(arena_.get(), [&] { return EraseEntry(key); });
}

UpdateOutcome PhTree::Update(std::span<const uint64_t> old_key,
                             std::span<const uint64_t> new_key,
                             std::optional<uint64_t> value) {
  const UpdateOutcome out = TryUpdate(old_key, new_key, value);
  if (out == UpdateOutcome::kNoMem) {
    throw std::bad_alloc();
  }
  return out;
}

UpdateOutcome PhTree::TryUpdate(std::span<const uint64_t> old_key,
                                std::span<const uint64_t> new_key,
                                std::optional<uint64_t> value) {
  assert(old_key.size() == dim_ && new_key.size() == dim_);
  return WriteScope(arena_.get(),
                    [&] { return MoveEntry(old_key, new_key, value); });
}

// ---- The key descent -------------------------------------------------------
//
// Every lookup by key is one root-to-leaf descent by hypercube address
// (paper Sect. 3.5), written once (Descend): Find runs it from the root,
// FindBatch resumes it partway down for each key of a sorted batch, and
// the mutation engine below runs it from the root and edits along the
// recorded path.

struct PhTree::Descent {
  FixedStack<Frame, kBitWidth> path;
  NodeRef node;        ///< the node where the key leaves the tree
  int mismatch = -1;   ///< key bit where node's infix diverges, or -1
  uint64_t addr = 0;   ///< the key's hypercube address in node
  uint64_t ord = Node::kNoOrdinal;  ///< entry at addr (kNoOrdinal: empty)
  int div = -1;        ///< postfix divergence at ord (-1: exact match)

  bool found() const {
    return mismatch < 0 && ord != Node::kNoOrdinal && div < 0;
  }
};

void PhTree::Descend(NodeRef node, std::span<const uint64_t> key,
                     Descent* d) const {
  for (;;) {
    d->node = node;
    d->mismatch = node.ptr->MatchInfix(key);
    if (d->mismatch >= 0) {
      return;
    }
    d->addr = HcAddressAt(key, node.ptr->postfix_len());
    d->ord = node.ptr->FindOrdinal(d->addr);
    if (d->ord == Node::kNoOrdinal) {
      return;
    }
    if (!node.ptr->OrdinalIsSub(d->ord)) {
      d->div = node.ptr->PostfixDivergence(d->ord, key);
      return;
    }
    d->path.push_back(Frame{node, d->ord});
    const NodeHandle ch = node.ptr->OrdinalSub(d->ord);
    node = NodeRef{arena_->NodeAt(ch), ch};
  }
}

std::optional<uint64_t> PhTree::Find(std::span<const uint64_t> key) const {
  assert(key.size() == dim_);
  const NodeRef root = ReadRoot();
  if (!root) {
    return std::nullopt;
  }
  Descent d;
  Descend(root, key, &d);
  if (!d.found()) {
    return std::nullopt;
  }
  return d.node.ptr->OrdinalPayload(d.ord);
}

std::vector<std::optional<uint64_t>> PhTree::FindBatch(
    std::span<const PhKey> keys) const {
  std::vector<std::optional<uint64_t>> results(keys.size());
  // Visit the keys in z-order so the descents share their upper levels:
  // consecutive sorted keys agree on a prefix. Sorting compares a one-word
  // sample of each z-address (the top floor(64/dim) bits of every
  // dimension, interleaved — simd::ZSamplePrefix) computed once per key;
  // a full multi-word ZOrderLess per comparison would chase two heap
  // vectors every time and dominate the batch's cost. The sample covers
  // the tree's top levels, which is all the sharing cares about — the
  // order is a pure heuristic (resumption is correct for any visit order),
  // so ties on the sample just keep their relative input order.
  std::vector<BatchSlot> order(keys.size());
  for (size_t i = 0; i < keys.size(); ++i) {
    order[i] = {0, static_cast<uint32_t>(i),
                simd::ZSamplePrefix(keys[i].data(), dim_)};
  }
  std::sort(order.begin(), order.end());
  FindRun(keys, order, results.data());
  return results;
}

void PhTree::FindRun(std::span<const PhKey> keys,
                     std::span<const BatchSlot> run,
                     std::optional<uint64_t>* results) const {
  // One root snapshot for the whole run: an MVCC reader must not mix
  // nodes from two different published roots in one resumed descent.
  const NodeRef root = ReadRoot();
  if (!root) {
    return;
  }
  Descent d;
  d.node = root;
  const uint64_t* prev = nullptr;
  for (size_t si = 0; si < run.size(); ++si) {
    if (si + 1 < run.size()) {
      // One-step-ahead prefetch of the next key's coordinates (each PhKey
      // is its own heap block) so the bit compare below never stalls.
      simd::PrefetchRead(keys[run[si + 1].index].data());
    }
    const PhKey& key_vec = keys[run[si].index];
    assert(key_vec.size() == dim_);
    const std::span<const uint64_t> key{key_vec.data(), dim_};
    if (prev != nullptr) {
      const int hb = FirstDifferingBit(key, {prev, dim_});
      if (hb < 0) {
        results[run[si].index] = results[run[si - 1].index];
        continue;  // duplicate key
      }
      // Resume at the deepest node of the previous key's descent whose
      // address bit lies at or above hb: the keys agree on every bit above
      // it, so both reach it along the same path (the root, at the top
      // bit, always qualifies).
      while (d.node.ptr->postfix_len() < static_cast<uint32_t>(hb)) {
        d.node = d.path.back().node;
        d.path.pop_back();
      }
    }
    Descend(d.node, key, &d);
    if (d.found()) {
      results[run[si].index] = d.node.ptr->OrdinalPayload(d.ord);
    }
    prev = key.data();
  }
}

// ---- The mutation engine ---------------------------------------------------
//
// Insert, erase and update share one shape, the paper's "an update touches
// at most two nodes" (Sect. 3.6): one iterative descent along the key that
// records its (node, sub-ordinal) path (Descend), then one edit step for the
// structural case at hand, then one publication of the edited node in the
// place of the node it replaces. Each case is written once:
//   insert: empty slot, postfix collision, infix split, payload rewrite;
//   erase:  plain remove, merge into the parent, splice of the grandchild;
//   update: in-node move and payload rewrite, else insert-then-erase.
//
// A node's entries and infix never change where it stands. An edit writes
// the edited node once into a new block (Node::TryEdit), and a new node
// (the first root, a split's parent, a collision's child) is written once
// with its final entries (Node::TryBuild). Finish then links the edited
// node in the replaced node's place with one release store into an
// aligned child slot (Node::PublishSubAt) or the root (SetRoot), so a
// lock-free reader sees either the old node or the complete replacement,
// and the replaced nodes leave the tree through RetireNode. The two
// mutation policies run the same steps and differ only there: a plain
// tree frees the replaced nodes at once, and an MVCC tree (EnableMvcc)
// retires them until no reader can hold them.
//
// One ordering rule keeps every mutation commit-or-rollback under both
// policies: nothing published is written before Finish. Every fallible
// step (kArenaNodeAlloc for built nodes, kWordAlloc for edited nodes)
// comes first, and on any failure Finish frees the created nodes, which
// nothing references. A payload rewrite needs no Finish: it is one atomic
// store into an aligned value slot and never allocates.

namespace {

/// The two entries of a node that a split or a collision writes, in address
/// order, with the record source of postfix entry i at keys + i * dim (the
/// layout Node::TryBuild reads; a sub entry's slot is unused).
struct EntryPair {
  /// `a` and `b` take their records from `key_a` and `key_b` (empty for a
  /// sub entry).
  EntryPair(uint32_t dim, NodeEntry a, std::span<const uint64_t> key_a,
            NodeEntry b, std::span<const uint64_t> key_b) {
    if (b.addr < a.addr) {
      std::swap(a, b);
      std::swap(key_a, key_b);
    }
    entries[0] = a;
    entries[1] = b;
    std::copy(key_a.begin(), key_a.end(), keys);
    std::copy(key_b.begin(), key_b.end(), keys + dim);
  }

  NodeEntry entries[2];
  uint64_t keys[2 * kMaxDims] = {};
};

}  // namespace

class PhTree::Mutation {
 public:
  explicit Mutation(PhTree* tree) : tree_(tree) {}

  /// A node written whole by this call (Node::TryBuild), recorded as
  /// created. Empty on allocation failure.
  NodeRef Build(uint32_t infix_len, uint32_t postfix_len,
                std::span<const uint64_t> infix_key,
                std::span<const NodeEntry> entries, const uint64_t* keys) {
    return Created(Node::TryBuild(*tree_->arena_, tree_->dim_, infix_len,
                                  postfix_len, tree_->config_.store_values,
                                  infix_key, entries, keys));
  }

  /// `node` with `delta` applied, in a new block created by this call
  /// (Node::TryEdit); `node` is recorded as replaced. Empty on allocation
  /// failure.
  NodeRef Edit(NodeRef node, const Node::EntryDelta& delta) {
    const NodeRef edited = Created(node.ptr->TryEdit(*tree_->arena_, delta));
    if (edited) {
      Replaced(node);
    }
    return edited;
  }

  /// `node` leaves the tree once this call commits.
  void Replaced(NodeRef node) { replaced_.push_back(node); }

  /// If `ok`, publishes `replacement` in the place of the node at level
  /// `depth` of `path` (the root for depth 0) with one store and commits;
  /// otherwise deletes every created node. Returns `ok`.
  bool Finish(bool ok, NodeRef replacement, const Frame* path,
              size_t depth) {
    if (!ok) {
      for (const NodeRef& n : created_) {
        tree_->arena_->DeleteNode(n);
      }
      return false;
    }
    if (depth == 0) {
      tree_->SetRoot(replacement);
    } else {
      const Frame& f = path[depth - 1];
      f.node.ptr->PublishSubAt(f.ord, replacement.handle);
    }
    for (const NodeRef& n : replaced_) {
      tree_->arena_->RetireNode(n);
    }
    return true;
  }

 private:
  NodeRef Created(NodeRef node) {
    if (node) {
      created_.push_back(node);
    }
    return node;
  }

  PhTree* tree_;
  // A split or a collision creates two nodes; a merge or a splice
  // replaces two.
  FixedStack<NodeRef, 2> created_;
  FixedStack<NodeRef, 2> replaced_;
};

OpStatus PhTree::InsertEntry(std::span<const uint64_t> key, uint64_t value,
                             bool assign) {
  using Delta = Node::EntryDelta;
  Descent d;
  if (root_) {
    Descend(root_, key, &d);
  } else if (arena_ == nullptr) {
    // Moved-from tree being refilled: give it a fresh arena.
    arena_ = std::make_unique<NodeArena>();
  }
  Mutation m(this);
  NodeRef replacement;  // takes d.node's place (the root's, if empty)
  if (!root_) {
    // Empty tree: the root is written with its one entry.
    const NodeEntry entry{HcAddressAt(key, kBitWidth - 1), value, false};
    replacement = m.Build(/*infix_len=*/0, /*postfix_len=*/kBitWidth - 1,
                          key, {&entry, 1}, key.data());
  } else if (d.mismatch >= 0) {
    // Infix split: the key diverges from d.node's infix at key bit `mis`.
    // d.node keeps the infix bits below `mis`, and a new parent at that
    // depth holds it and the key's postfix; the root has no infix and
    // never splits.
    const uint32_t mis = static_cast<uint32_t>(d.mismatch);
    const uint32_t pl = d.node.ptr->postfix_len();
    const uint32_t il = d.node.ptr->infix_len();
    KeyBuf rep;
    CopyKey(key, rep.span(dim_));
    d.node.ptr->ReadInfixInto(rep.span(dim_));
    const uint64_t addr_node = HcAddressAt(rep.span(dim_), mis);
    const uint64_t addr_key = HcAddressAt(key, mis);
    assert(addr_node != addr_key);
    const NodeRef trimmed =
        m.Edit(d.node, Delta::Infix(mis - 1 - pl, rep.span(dim_)));
    if (trimmed) {
      const EntryPair pair(dim_, {addr_node, trimmed.handle, /*is_sub=*/true},
                           {}, {addr_key, value, /*is_sub=*/false}, key);
      replacement = m.Build(pl + il - mis, mis, key, pair.entries, pair.keys);
    }
  } else if (d.ord == Node::kNoOrdinal) {
    // Empty slot: the postfix lands in d.node itself.
    replacement = m.Edit(d.node, Delta::InsertPostfix(d.addr, key, value));
  } else if (d.div < 0) {
    // Exact duplicate. The payload rewrite is one atomic store into an
    // aligned value slot in both policies and never allocates.
    if (assign) {
      d.node.ptr->PublishPayloadAt(d.ord, value);
    }
    return OpStatus::kNoop;
  } else {
    // Postfix collision: both keys share bits (div, postfix_len) below
    // d.node; a new child at depth `div` holds the two postfixes and
    // takes the colliding entry's slot.
    const uint32_t div = static_cast<uint32_t>(d.div);
    const uint32_t pl = d.node.ptr->postfix_len();
    KeyBuf old_key;
    CopyKey(key, old_key.span(dim_));
    d.node.ptr->ReadPostfixInto(d.ord, old_key.span(dim_));
    const EntryPair pair(dim_,
                         {HcAddressAt(old_key.span(dim_), div),
                          d.node.ptr->OrdinalPayload(d.ord), false},
                         old_key.span(dim_),
                         {HcAddressAt(key, div), value, false}, key);
    const NodeRef child =
        m.Build(pl - 1 - div, div, key, pair.entries, pair.keys);
    if (child) {
      replacement = m.Edit(d.node, Delta::ToSub(d.addr, child.handle));
    }
  }
  if (!m.Finish(static_cast<bool>(replacement), replacement, d.path.begin(),
                d.path.size())) {
    return OpStatus::kNoMem;
  }
  size_.fetch_add(1, std::memory_order_relaxed);
  return OpStatus::kApplied;
}

OpStatus PhTree::EraseEntry(std::span<const uint64_t> key) {
  using Delta = Node::EntryDelta;
  if (!root_) {
    return OpStatus::kNoop;
  }
  Descent d;
  Descend(root_, key, &d);
  if (!d.found()) {
    return OpStatus::kNoop;
  }
  Mutation m(this);
  const NodeRef node = d.node;
  NodeRef replacement;   // published at level `at` of the path
  size_t at = d.path.size();
  bool ok = false;
  if (d.path.size() == 0 && node.ptr->num_entries() == 1) {
    // The tree's last entry: publish the empty root.
    m.Replaced(node);
    ok = true;
  } else if (d.path.size() > 0 && node.ptr->num_entries() == 2) {
    // The removal would leave a non-root node with a single entry, so the
    // node goes as a whole and its surviving entry moves up — the paper's
    // second affected node.
    uint64_t sord = node.ptr->FirstOrdinal();
    if (sord == d.ord) {
      sord = node.ptr->NextOrdinal(sord);
    }
    m.Replaced(node);
    // The surviving entry's bits below the parent: node's infix and
    // address bit, then the entry's own infix or postfix.
    KeyBuf buf;
    for (uint32_t i = 0; i < dim_; ++i) {
      buf.data[i] = 0;
    }
    ApplyHcAddress(node.ptr->OrdinalAddr(sord), node.ptr->postfix_len(),
                   buf.span(dim_));
    node.ptr->ReadInfixInto(buf.span(dim_));
    if (node.ptr->OrdinalIsSub(sord)) {
      // Splice: the grandchild absorbs those bits into its infix and takes
      // node's slot in the parent.
      const NodeHandle gh = node.ptr->OrdinalSub(sord);
      const NodeRef grandchild{arena_->NodeAt(gh), gh};
      grandchild.ptr->ReadInfixInto(buf.span(dim_));
      replacement = m.Edit(
          grandchild,
          Delta::Infix(grandchild.ptr->infix_len() + 1 +
                           node.ptr->infix_len(),
                       buf.span(dim_)));
    } else {
      // Merge: the surviving postfix replaces the parent's sub entry.
      node.ptr->ReadPostfixInto(sord, buf.span(dim_));
      const Frame& pf = d.path.back();
      replacement = m.Edit(
          pf.node, Delta::ToPostfix(pf.node.ptr->OrdinalAddr(pf.ord),
                                    buf.span(dim_),
                                    node.ptr->OrdinalPayload(sord)));
      at = d.path.size() - 1;  // the edited parent replaces the parent
    }
    ok = static_cast<bool>(replacement);
  } else {
    // Plain remove.
    replacement = m.Edit(node, Delta::Remove(d.addr));
    ok = static_cast<bool>(replacement);
  }
  if (!m.Finish(ok, replacement, d.path.begin(), at)) {
    return OpStatus::kNoMem;
  }
  size_.fetch_sub(1, std::memory_order_relaxed);
  return OpStatus::kApplied;
}

UpdateOutcome PhTree::MoveEntry(std::span<const uint64_t> old_key,
                                std::span<const uint64_t> new_key,
                                std::optional<uint64_t> value) {
  if (!root_) {
    return UpdateOutcome::kOldMissing;
  }
  Descent d;
  Descend(root_, old_key, &d);
  if (!d.found()) {
    return UpdateOutcome::kOldMissing;
  }
  // First differing bit of the two keys: the level of their lowest
  // common ancestor (FindBatch's resumption point).
  const int diff = FirstDifferingBit(old_key, new_key);
  if (diff < 0) {
    // Payload rewrite (old_key == new_key), as in InsertEntry.
    if (value.has_value()) {
      d.node.ptr->PublishPayloadAt(d.ord, *value);
    }
    ++update_stats_.fast_path;
    return UpdateOutcome::kMoved;
  }

  const uint32_t hb = static_cast<uint32_t>(diff);
  const uint32_t pl = d.node.ptr->postfix_len();
  const uint64_t v =
      value.has_value() ? *value : d.node.ptr->OrdinalPayload(d.ord);
  if (hb <= pl) {
    // The keys agree on every bit above `pl`, so new_key belongs in this
    // same node: the move is a slot change, or a pure postfix rewrite when
    // the slot is unchanged (that slot holds old_key itself, so new_key
    // cannot exist anywhere else).
    const uint64_t new_addr = HcAddressAt(new_key, pl);
    const uint64_t nord = new_addr == d.addr
                              ? Node::kNoOrdinal
                              : d.node.ptr->FindOrdinal(new_addr);
    if (nord != Node::kNoOrdinal && !d.node.ptr->OrdinalIsSub(nord) &&
        d.node.ptr->PostfixDivergence(nord, new_key) < 0) {
      return UpdateOutcome::kNewOccupied;
    }
    if (nord == Node::kNoOrdinal) {
      // In-node move: one node rewritten with its occupancy unchanged and
      // published with one store, so an MVCC reader sees the entry jump
      // from old_key to new_key. An unchanged slot rewrites the record and
      // payload in place of the old ones.
      Mutation m(this);
      const NodeRef moved = m.Edit(
          d.node, Node::EntryDelta::Move(d.addr, new_addr, new_key, v));
      if (!m.Finish(static_cast<bool>(moved), moved, d.path.begin(),
                    d.path.size())) {
        return UpdateOutcome::kNoMem;
      }
      ++update_stats_.fast_path;
      return UpdateOutcome::kMoved;
    }
    // Otherwise new_addr holds a sub (or a diverging postfix): the insert
    // below resolves the conflict and detects an occupied new_key.
  }

  // Structural move: insert-then-erase, each commit-or-rollback. old_key
  // is proven present by the descent above, so the old-missing-beats-
  // new-occupied precedence holds, and a kNoop from the insert can only
  // mean a different entry already owns new_key (old != new here). Under
  // MVCC a reader may transiently observe both keys — the documented
  // relaxation for structural moves.
  const OpStatus ins = InsertEntry(new_key, v, /*assign=*/false);
  if (ins == OpStatus::kNoMem) {
    return UpdateOutcome::kNoMem;
  }
  if (ins == OpStatus::kNoop) {
    return UpdateOutcome::kNewOccupied;
  }
  const OpStatus er = EraseEntry(old_key);
  if (er == OpStatus::kApplied) {
    ++update_stats_.fallback;
    return UpdateOutcome::kMoved;
  }
  // The erase needed an allocation (node merge) and failed: undo the
  // insert to restore the pre-call tree. The undo removes a postfix that
  // was just inserted; injected faults are suspended for it so the
  // rollback itself cannot be failed by the test harness (a genuine OOM
  // here is best-effort, like any destructor-time cleanup).
  assert(er == OpStatus::kNoMem);
  {
    FaultInjectorSuspend suspend;
    const OpStatus undo = EraseEntry(new_key);
    (void)undo;
    assert(undo == OpStatus::kApplied);
  }
  return UpdateOutcome::kNoMem;
}


void PhTree::ForEach(
    const std::function<void(const PhKey&, uint64_t)>& fn) const {
  PhKey key(dim_, 0);
  for (TreeCursor cursor(*this); cursor.Valid(); cursor.Next()) {
    const std::span<const uint64_t> k = cursor.key();
    std::copy(k.begin(), k.end(), key.begin());
    fn(key, cursor.value());
  }
}

PhTreeStats PhTree::ComputeStats() const {
  PhTreeStats stats;
  stats.n_entries = size_;
  if (root_) {
    StatsRec(root_.ptr, 1, &stats);
  }
  if (arena_ != nullptr) {
    // Exact, measured allocator state. Invariant (checked by the arena
    // tests): memory_bytes accumulated above plus retired-but-unreclaimed
    // bytes == arena_live_bytes (retired nodes are unreachable from the
    // root but still hold their slot and stream until their grace period
    // ends).
    stats.arena_slab_bytes = arena_->SlabBytes();
    stats.arena_live_bytes = arena_->LiveBytes();
    stats.arena_freelist_bytes = arena_->FreeListBytes();
    stats.arena_retired_bytes = arena_->RetiredBytes();
    stats.arena_retired_nodes = arena_->retired_nodes();
    stats.arena_reclaimed_nodes = arena_->reclaimed_nodes_total();
    if (arena_->epoch_manager() != nullptr) {
      stats.epoch = arena_->epoch_manager()->epoch();
    }
  }
  return stats;
}

void PhTree::StatsRec(const Node* node, size_t depth,
                      PhTreeStats* stats) const {
  ++stats->n_nodes;
  const uint64_t bytes = node->MemoryBytes();
  switch (node->repr()) {
    case Node::Repr::kBhc:
      ++stats->n_bhc_nodes;
      stats->bhc_node_bytes += bytes;
      break;
    case Node::Repr::kLhc:
      ++stats->n_lhc_nodes;
      stats->lhc_node_bytes += bytes;
      break;
  }
  stats->memory_bytes += bytes;
  stats->max_depth = std::max(stats->max_depth, depth);
  stats->sum_node_depth += depth;
  stats->infix_bits += static_cast<uint64_t>(node->infix_len()) * dim_;
  stats->n_postfix_entries += node->num_postfixes();
  for (uint64_t ord = node->FirstOrdinal(); ord != Node::kNoOrdinal;
       ord = node->NextOrdinal(ord)) {
    if (node->OrdinalIsSub(ord)) {
      StatsRec(arena_->NodeAt(node->OrdinalSub(ord)), depth + 1, stats);
    }
  }
}

}  // namespace phtree
