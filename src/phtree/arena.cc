#include "phtree/arena.h"

#include <bit>
#include <cassert>
#include <cstdlib>
#include <cstring>
#include <new>

#include "common/fault.h"

// Freed node slots are poisoned under ASan so that any read through a
// dangling (early-reclaimed) node pointer aborts the test instead of
// silently reading recycled bytes — the teeth behind the epoch-reclamation
// canary test.
#if defined(__has_feature)
#if __has_feature(address_sanitizer)
#define PHTREE_ARENA_ASAN 1
#endif
#elif defined(__SANITIZE_ADDRESS__)
#define PHTREE_ARENA_ASAN 1
#endif
#ifdef PHTREE_ARENA_ASAN
#include <sanitizer/asan_interface.h>
#define PHTREE_POISON_SLOT(p, n) ASAN_POISON_MEMORY_REGION((p), (n))
#define PHTREE_UNPOISON_SLOT(p, n) ASAN_UNPOISON_MEMORY_REGION((p), (n))
#else
#define PHTREE_POISON_SLOT(p, n) ((void)(p), (void)(n))
#define PHTREE_UNPOISON_SLOT(p, n) ((void)(p), (void)(n))
#endif

namespace phtree {
namespace {

/// Smallest power-of-two word count >= n, as a class index (log2).
uint32_t ClassFor(uint64_t words) {
  assert(words >= 1);
  return static_cast<uint32_t>(std::bit_width(words - 1));
}

}  // namespace

// ---- SlabWordPool ---------------------------------------------------------

SlabWordPool::~SlabWordPool() { FreeAllLarge(); }

uint64_t SlabWordPool::GrantWords(uint64_t min_words) const {
  assert(min_words >= 1);
  if (min_words > kMaxClassWords) {
    // Large blocks grow in kMaxClassWords granules: deterministic (the size
    // tables must not depend on growth history) yet coarse enough that a
    // giant HC buffer reallocates once per 32 KiB of growth, not per insert.
    return (min_words + kMaxClassWords - 1) / kMaxClassWords * kMaxClassWords;
  }
  return uint64_t{1} << ClassFor(min_words);
}

uint64_t* SlabWordPool::AllocateWords(uint64_t min_words,
                                      uint64_t* actual_words) {
  assert(min_words >= 1);
  if (min_words > kMaxClassWords) {
    const uint64_t granted = GrantWords(min_words);
    *actual_words = granted;
    return AllocateLarge(granted);
  }
  const uint32_t cls = ClassFor(min_words);
  const uint64_t words = uint64_t{1} << cls;
  *actual_words = words;
  if (free_[cls] != nullptr) {
    uint64_t* block = free_[cls];
    std::memcpy(&free_[cls], block, sizeof(uint64_t*));
    free_bytes_ -= words * sizeof(uint64_t);
    live_bytes_ += words * sizeof(uint64_t);
    return block;
  }
  // Bump path. Classes are powers of two and slabs are a power-of-two
  // multiple of the largest class, so a block never straddles a slab.
  // Cursor state only advances once the slab exists, so a failed growth
  // leaves the pool consistent.
  if (slabs_.empty() || slab_off_ + words > kSlabWords) {
    const size_t next_slab = slabs_.empty() ? 0 : cur_slab_ + 1;
    if (next_slab == slabs_.size()) {
      uint64_t* mem = new (std::nothrow) uint64_t[kSlabWords];
      if (mem == nullptr) {
        return nullptr;
      }
      try {
        slabs_.emplace_back(mem);
      } catch (...) {
        delete[] mem;
        return nullptr;
      }
    }
    cur_slab_ = next_slab;
    slab_off_ = 0;
  }
  uint64_t* block = slabs_[cur_slab_].get() + slab_off_;
  slab_off_ += words;
  live_bytes_ += words * sizeof(uint64_t);
  return block;
}

void SlabWordPool::DeallocateWords(uint64_t* block, uint64_t words) {
  if (words > kMaxClassWords) {
    DeallocateLarge(block);
    return;
  }
  assert(std::has_single_bit(words));
  const uint32_t cls = ClassFor(words);
  std::memcpy(block, &free_[cls], sizeof(uint64_t*));
  free_[cls] = block;
  live_bytes_ -= words * sizeof(uint64_t);
  free_bytes_ += words * sizeof(uint64_t);
}

uint64_t* SlabWordPool::AllocateLarge(uint64_t words) {
  auto* lb = static_cast<LargeBlock*>(
      std::malloc(sizeof(LargeBlock) + words * sizeof(uint64_t)));
  if (lb == nullptr) {
    return nullptr;
  }
  lb->prev = nullptr;
  lb->next = large_head_;
  lb->words = words;
  if (large_head_ != nullptr) {
    large_head_->prev = lb;
  }
  large_head_ = lb;
  const uint64_t bytes = sizeof(LargeBlock) + words * sizeof(uint64_t);
  large_bytes_ += bytes;
  live_bytes_ += words * sizeof(uint64_t);
  return reinterpret_cast<uint64_t*>(lb + 1);
}

void SlabWordPool::DeallocateLarge(uint64_t* block) {
  auto* lb = reinterpret_cast<LargeBlock*>(block) - 1;
  if (lb->prev != nullptr) {
    lb->prev->next = lb->next;
  } else {
    large_head_ = lb->next;
  }
  if (lb->next != nullptr) {
    lb->next->prev = lb->prev;
  }
  large_bytes_ -= sizeof(LargeBlock) + lb->words * sizeof(uint64_t);
  live_bytes_ -= lb->words * sizeof(uint64_t);
  std::free(lb);
}

void SlabWordPool::FreeAllLarge() {
  while (large_head_ != nullptr) {
    LargeBlock* next = large_head_->next;
    std::free(large_head_);
    large_head_ = next;
  }
  large_bytes_ = 0;
}

void SlabWordPool::Reset() {
  std::memset(free_, 0, sizeof(free_));
  FreeAllLarge();
  cur_slab_ = 0;
  slab_off_ = 0;
  live_bytes_ = 0;
  free_bytes_ = 0;
}

// ---- NodeArena ------------------------------------------------------------

NodeArena::~NodeArena() {
  // Slabs and the word pool free everything wholesale; skipping the Node
  // destructors is safe because the only resource a Node owns is its
  // BitBuffer block, which lives in word_pool_. Retired nodes pending
  // reclamation go the same wholesale way.
  for (const auto& slab : node_slabs_) {
    PHTREE_UNPOISON_SLOT(slab.get(), kNodesPerSlab * sizeof(NodeSlot));
  }
  delete[] slab_dir_.load(std::memory_order_relaxed);
}

bool NodeArena::PublishSlab(NodeSlot* slab) {
  const uint64_t count = slab_count_.load(std::memory_order_relaxed);
  NodeSlot** dir = slab_dir_.load(std::memory_order_relaxed);
  if (count == slab_dir_capacity_) {
    const uint64_t cap = slab_dir_capacity_ == 0 ? 8 : slab_dir_capacity_ * 2;
    NodeSlot** grown = new (std::nothrow) NodeSlot*[cap];
    if (grown == nullptr) {
      return false;
    }
    for (uint64_t i = 0; i < count; ++i) {
      grown[i] = dir[i];
    }
    if (dir != nullptr) {
      // Lock-free readers may still resolve handles through the old
      // snapshot; park it until destruction (growth is geometric, so the
      // parked arrays sum to less than the live one).
      old_slab_dirs_.emplace_back(dir);
    }
    dir = grown;
    slab_dir_capacity_ = cap;
  }
  dir[count] = slab;
  // Publish the entry before the count / the directory pointer: a reader
  // can only look up slab `count` after it acquires a handle that names
  // it, and such handles are only published after this release store.
  slab_dir_.store(dir, std::memory_order_release);
  slab_count_.store(count + 1, std::memory_order_release);
  return true;
}

NodeHandle NodeArena::TakeSlot() {
  if (free_head_ != kInvalidNodeHandle) {
    const NodeHandle h = free_head_;
    NodeSlot* slot = &node_slabs_[h >> kSlabShift][h & kSlotMask];
    PHTREE_UNPOISON_SLOT(slot, sizeof(NodeSlot));
    std::memcpy(&free_head_, slot, sizeof(NodeHandle));
    --free_node_count_;
    return h;
  }
  if (node_slabs_.empty() || node_slab_off_ == kNodesPerSlab) {
    const size_t next_slab = node_slabs_.empty() ? 0 : cur_node_slab_ + 1;
    if (next_slab == node_slabs_.size()) {
      NodeSlot* mem = new (std::nothrow) NodeSlot[kNodesPerSlab];
      if (mem == nullptr) {
        return kInvalidNodeHandle;
      }
      try {
        node_slabs_.emplace_back(mem);
      } catch (...) {
        delete[] mem;
        return kInvalidNodeHandle;
      }
      if (!PublishSlab(mem)) {
        node_slabs_.pop_back();
        return kInvalidNodeHandle;
      }
    }
    cur_node_slab_ = next_slab;
    node_slab_off_ = 0;
  }
  return static_cast<NodeHandle>(cur_node_slab_ * kNodesPerSlab +
                                 node_slab_off_++);
}

NodeRef NodeArena::NewNode(uint32_t dim, uint32_t infix_len,
                           uint32_t postfix_len, bool store_values) {
  if (FaultHit(FaultSite::kArenaNodeAlloc)) {
    return {};
  }
  const NodeHandle h = TakeSlot();
  if (h == kInvalidNodeHandle) {
    return {};
  }
  NodeSlot* slot = &node_slabs_[h >> kSlabShift][h & kSlotMask];
  try {
    Node* node = new (slot) Node(dim, infix_len, postfix_len, store_values,
                                 &word_pool_);
    ++live_nodes_;
    return {node, h};
  } catch (const std::bad_alloc&) {
    // The slot was claimed but the node's infix buffer could not be
    // allocated: thread the slot back onto the freelist and report failure.
    std::memcpy(slot, &free_head_, sizeof(NodeHandle));
    free_head_ = h;
    ++free_node_count_;
    PHTREE_POISON_SLOT(slot, sizeof(NodeSlot));
    return {};
  }
}

void NodeArena::DeleteNode(NodeRef ref) {
  assert(ref.ptr != nullptr && live_nodes_ > 0);
  assert(Owns(ref.ptr));
  assert(NodeAt(ref.handle) == ref.ptr);
  --live_nodes_;
  // Run the destructor so the BitBuffer block returns to the size-class
  // freelist, then thread the slot onto the handle-linked freelist.
  ref.ptr->~Node();
  NodeSlot* slot = &node_slabs_[ref.handle >> kSlabShift]
                               [ref.handle & kSlotMask];
  std::memcpy(slot, &free_head_, sizeof(NodeHandle));
  free_head_ = ref.handle;
  ++free_node_count_;
  PHTREE_POISON_SLOT(slot, sizeof(NodeSlot));
}

void NodeArena::SetEpochManager(EpochManager* epochs) {
  assert(retired_.empty());
  epochs_ = epochs;
}

void NodeArena::RetireNode(NodeRef ref) {
  assert(ref.ptr != nullptr);
  if (epochs_ == nullptr) {
    DeleteNode(ref);
    return;
  }
  const uint64_t bytes = ref.ptr->MemoryBytes();
  retired_.push_back(Retired{ref, epochs_->epoch(), bytes});
  retired_bytes_ += bytes;
}

void NodeArena::Reclaim() {
  if (epochs_ == nullptr || retired_.empty()) {
    return;
  }
  epochs_->TryAdvance();
  const uint64_t safe = epochs_->epoch();
  // Stamps are non-decreasing, so eligible records form a queue prefix. A
  // record stamped r is reclaimable once the epoch reached r + 2: every
  // guard that could have observed the node announced r or r + 1 and has
  // exited (else the epoch could not have advanced past r + 1).
  while (!retired_.empty() && retired_.front().stamp + 2 <= safe) {
    const Retired r = retired_.front();
    retired_.pop_front();
    retired_bytes_ -= r.bytes;
    ++reclaimed_total_;
    DeleteNode(r.ref);
  }
}

void NodeArena::Reset() {
  // Wholesale-drop any deferred-free queue: Reset's contract is that no
  // reader is alive, and the slots and word blocks are reclaimed with the
  // rest of the arena.
  retired_.clear();
  retired_bytes_ = 0;
  word_pool_.Reset();
  cur_node_slab_ = 0;
  node_slab_off_ = 0;
  free_head_ = kInvalidNodeHandle;
  free_node_count_ = 0;
  live_nodes_ = 0;
  for (const auto& slab : node_slabs_) {
    PHTREE_UNPOISON_SLOT(slab.get(), kNodesPerSlab * sizeof(NodeSlot));
  }
}

void NodeArena::ReserveNodes(size_t n) {
  const size_t want_slabs =
      (live_nodes_ + free_node_count_ + n + kNodesPerSlab - 1) / kNodesPerSlab;
  while (node_slabs_.size() < want_slabs) {
    node_slabs_.emplace_back(new NodeSlot[kNodesPerSlab]);
    if (!PublishSlab(node_slabs_.back().get())) {
      node_slabs_.pop_back();
      throw std::bad_alloc();
    }
  }
}

bool NodeArena::Owns(const Node* node) const {
  if (node == nullptr) {
    return false;
  }
  // Walk the RCU directory snapshot, not node_slabs_: lock-free readers
  // assert Owns() mid-traversal while the writer may be growing the vector.
  // Count is loaded before the directory: every later-published directory
  // contains at least the first `count` entries, never fewer.
  const uint64_t count = slab_count_.load(std::memory_order_acquire);
  NodeSlot* const* dir = slab_dir_.load(std::memory_order_acquire);
  const auto* p = reinterpret_cast<const unsigned char*>(node);
  for (uint64_t i = 0; i < count; ++i) {
    const auto* base = reinterpret_cast<const unsigned char*>(dir[i]);
    const auto* end = base + kNodesPerSlab * sizeof(NodeSlot);
    if (p >= base && p < end) {
      return (p - base) % sizeof(NodeSlot) == 0;
    }
  }
  return false;
}

uint64_t NodeArena::SlabBytes() const {
  return node_slabs_.size() * kNodesPerSlab * sizeof(NodeSlot) +
         word_pool_.SlabBytes();
}

uint64_t NodeArena::LiveBytes() const {
  return live_nodes_ * sizeof(Node) + word_pool_.LiveBytes();
}

uint64_t NodeArena::FreeListBytes() const {
  return free_node_count_ * sizeof(NodeSlot) + word_pool_.FreeListBytes();
}

}  // namespace phtree
