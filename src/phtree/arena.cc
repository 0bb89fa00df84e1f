#include "phtree/arena.h"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <iterator>
#include <new>

#if __has_include(<sys/mman.h>)
#include <sys/mman.h>
#endif

// Free blocks are poisoned under ASan so that any read through a dangling
// (early-reclaimed) node pointer aborts the test instead of silently
// reading recycled bytes — the teeth behind the epoch-reclamation canary
// tests. A freelist block keeps only its link word (its last word, so the
// node header at the block's start is poisoned too) readable.
#if defined(__has_feature)
#if __has_feature(address_sanitizer)
#define PHTREE_ARENA_ASAN 1
#endif
#elif defined(__SANITIZE_ADDRESS__)
#define PHTREE_ARENA_ASAN 1
#endif
#ifdef PHTREE_ARENA_ASAN
#include <sanitizer/asan_interface.h>
#define PHTREE_POISON_BLOCK(p, n) ASAN_POISON_MEMORY_REGION((p), (n))
#define PHTREE_UNPOISON_BLOCK(p, n) ASAN_UNPOISON_MEMORY_REGION((p), (n))
#else
#define PHTREE_POISON_BLOCK(p, n) ((void)(p), (void)(n))
#define PHTREE_UNPOISON_BLOCK(p, n) ((void)(p), (void)(n))
#endif

namespace phtree {
namespace {

constexpr std::align_val_t kLineAlign{SlabWordPool::kLineWords *
                                      sizeof(uint64_t)};

uint64_t* AllocateAligned(uint64_t words) {
  return static_cast<uint64_t*>(
      ::operator new(words * sizeof(uint64_t), kLineAlign, std::nothrow));
}

void FreeAligned(uint64_t* p) { ::operator delete(p, kLineAlign); }

constexpr std::align_val_t kChunkAlign{SlabWordPool::kChunkBytes};

// A chunk comes from the heap, not from its own mmap: after the first
// chunk is freed, glibc serves later ones from memory it already holds, so a
// rebuilt tree reuses its predecessor's pages instead of faulting fresh
// ones, and LSan sees the chunk like any other allocation.
uint64_t* AllocateChunk() {
  void* p = ::operator new(SlabWordPool::kChunkBytes, kChunkAlign,
                           std::nothrow);
#ifdef MADV_HUGEPAGE
  if (p != nullptr) {
    // Advice only, on the pool's own memory: a host in THP mode `never`
    // (or a kernel without THP) keeps 4 KiB pages, and nothing changes.
    (void)madvise(p, SlabWordPool::kChunkBytes, MADV_HUGEPAGE);
  }
#endif
  return static_cast<uint64_t*>(p);
}

}  // namespace

// ---- SlabWordPool ---------------------------------------------------------

SlabWordPool::SlabWordPool(uint32_t max_slabs)
    : max_slabs_(std::min(max_slabs, kMaxSlabs)) {
  std::fill(std::begin(free_), std::end(free_), kInvalidNodeHandle);
}

SlabWordPool::~SlabWordPool() {
  // Blocks are never destroyed one by one: every reservation and large
  // block goes back to the system wholesale.
  const uint64_t count = dir_count_.load(std::memory_order_relaxed);
  for (uint32_t i = 0; i < count; ++i) {
    const DirEntry& e = Entry(i);
    uint64_t* base = e.base.load(std::memory_order_relaxed);
    if (base != nullptr && e.large_words.load(std::memory_order_relaxed) != 0) {
      FreeAligned(base);
    }
  }
  for (const Reservation& r : reserved_) {
    FreeReservation(r);
  }
  delete[] dir_.load(std::memory_order_relaxed);
}

void SlabWordPool::FreeReservation(Reservation r) {
  PHTREE_UNPOISON_BLOCK(r.base, r.slabs * kSlabWords * sizeof(uint64_t));
  if (r.slabs == 1) {
    FreeAligned(r.base);
  } else {
    ::operator delete(r.base, kChunkAlign);
  }
}

uint32_t SlabWordPool::AddEntry(uint64_t* base, uint64_t large_words) {
  uint32_t index = free_entry_;
  if (index != kNoEntry) {
    free_entry_ = static_cast<uint32_t>(
        Entry(index).large_words.load(std::memory_order_relaxed));
  } else {
    const uint64_t count = dir_count_.load(std::memory_order_relaxed);
    if (count >= max_slabs_) {
      return kNoEntry;
    }
    DirEntry* dir = dir_.load(std::memory_order_relaxed);
    if (count == dir_capacity_) {
      const uint64_t cap = dir_capacity_ == 0 ? 8 : dir_capacity_ * 2;
      auto* grown = new (std::nothrow) DirEntry[cap];
      if (grown == nullptr) {
        return kNoEntry;
      }
      for (uint64_t i = 0; i < count; ++i) {
        grown[i].base.store(dir[i].base.load(std::memory_order_relaxed),
                            std::memory_order_relaxed);
        grown[i].large_words.store(
            dir[i].large_words.load(std::memory_order_relaxed),
            std::memory_order_relaxed);
      }
      if (dir != nullptr) {
        // Lock-free readers may still resolve handles through the old
        // snapshot; park it until destruction (growth is geometric, so the
        // parked arrays sum to less than the live one).
        try {
          old_dirs_.emplace_back(dir);
        } catch (...) {
          delete[] grown;
          return kNoEntry;
        }
      }
      dir_.store(grown, std::memory_order_release);
      dir_capacity_ = cap;
    }
    index = static_cast<uint32_t>(count);
    // Publish the count after the directory: Owns() loads the count first,
    // and every directory published since holds at least that many entries.
    dir_count_.store(count + 1, std::memory_order_release);
  }
  // A reader only looks entry `index` up after acquiring a handle naming
  // it, and such handles are published (release) after these stores.
  Entry(index).large_words.store(large_words, std::memory_order_relaxed);
  Entry(index).base.store(base, std::memory_order_relaxed);
  return index;
}

void SlabWordPool::ReleaseEntry(uint32_t index) {
  Entry(index).base.store(nullptr, std::memory_order_relaxed);
  Entry(index).large_words.store(free_entry_, std::memory_order_relaxed);
  free_entry_ = index;
}

bool SlabWordPool::AddSlab() {
  // Entries freed by large blocks are not counted, so near the cap a chunk
  // is never started that AddEntry could not finish.
  const bool chunk =
      slabs_.size() >= kChunkSlabs &&
      max_slabs_ - dir_count_.load(std::memory_order_relaxed) >= kChunkSlabs;
  const Reservation r{chunk ? AllocateChunk() : AllocateAligned(kSlabWords),
                      chunk ? kChunkSlabs : 1};
  if (r.base == nullptr) {
    return false;
  }
  // All or nothing: a slab that cannot get its entry releases the whole
  // reservation, and the entries taken so far go back to the free list.
  const size_t first = slabs_.size();
  const auto undo = [&] {
    for (; slabs_.size() > first; slabs_.pop_back()) {
      ReleaseEntry(slabs_.back());
    }
    FreeReservation(r);
    return false;
  };
  for (uint32_t i = 0; i < r.slabs; ++i) {
    const uint32_t index = AddEntry(r.base + uint64_t{i} * kSlabWords, 0);
    if (index == kNoEntry) {
      return undo();
    }
    try {
      slabs_.push_back(index);
    } catch (...) {
      ReleaseEntry(index);
      return undo();
    }
  }
  try {
    reserved_.push_back(r);
  } catch (...) {
    return undo();
  }
  return true;
}

bool SlabWordPool::NextSlab() {
  const bool first = slabs_.empty();
  const size_t next = first ? 0 : cur_slab_ + 1;
  if (next == slabs_.size() && !AddSlab()) {
    return false;
  }
  if (!first) {
    ParkRun(slabs_[cur_slab_], slab_off_, kSlabWords);
  }
  cur_slab_ = next;
  slab_off_ = 0;
  return true;
}

void SlabWordPool::ParkRun(uint64_t slab, uint64_t from, uint64_t to) {
  for (uint64_t p = from; p < to;) {
    const uint64_t piece =
        p % kLineWords != 0
            ? std::min(to, (p | (kLineWords - 1)) + 1) - p
            : std::min(to - p, kMaxClassWords);
    PushFree(EncodeHandle(slab, p / kGranuleWords), piece);
    p += piece;
  }
}

void SlabWordPool::PushFree(NodeHandle h, uint64_t words) {
  uint64_t* block = At(h);
  const uint32_t cls = ClassFor(words);
  block[words - 1] = free_[cls];
  free_[cls] = h;
  free_bytes_ += words * sizeof(uint64_t);
  PHTREE_POISON_BLOCK(block, (words - 1) * sizeof(uint64_t));
}

SlabWordPool::Block SlabWordPool::Allocate(uint64_t min_words) {
  const uint64_t words = GrantWords(min_words);
  if (words > kMaxClassWords) {
    return AllocateLarge(words);
  }
  NodeHandle& head = free_[ClassFor(words)];
  Block b;
  if (head != kInvalidNodeHandle) {
    b.handle = head;
    b.words = At(b.handle);
    head = static_cast<NodeHandle>(b.words[words - 1]);
    free_bytes_ -= words * sizeof(uint64_t);
  } else {
    // Bump path: a block that would touch one line more than its size
    // needs starts at the next line instead, and the skipped granules (less
    // than a line) are parked. A block that does not fit moves the cursor
    // to the next slab, which parks the tail. Cursor state only advances
    // once a slab exists, so a failed growth leaves the pool consistent.
    uint64_t off = slab_off_;
    if (!FitsLines(off, words)) {
      off = (off + kLineWords - 1) & ~(kLineWords - 1);
    }
    if (slabs_.empty() || off + words > kSlabWords) {
      if (!NextSlab()) {
        return {};
      }
      off = 0;
    }
    const uint64_t slab = slabs_[cur_slab_];
    ParkRun(slab, slab_off_, off);
    b.handle = EncodeHandle(slab, off / kGranuleWords);
    b.words = At(b.handle);
    slab_off_ = off + words;
  }
  PHTREE_UNPOISON_BLOCK(b.words, words * sizeof(uint64_t));
  std::memset(b.words, 0, words * sizeof(uint64_t));
  live_bytes_ += words * sizeof(uint64_t);
  return b;
}

SlabWordPool::Block SlabWordPool::AllocateLarge(uint64_t words) {
  uint64_t* mem = AllocateAligned(words);
  if (mem == nullptr) {
    return {};
  }
  const uint32_t index = AddEntry(mem, words);
  if (index == kNoEntry) {
    FreeAligned(mem);
    return {};
  }
  std::memset(mem, 0, words * sizeof(uint64_t));
  large_bytes_ += words * sizeof(uint64_t);
  live_bytes_ += words * sizeof(uint64_t);
  return {mem, EncodeHandle(index, 0)};
}

void SlabWordPool::Deallocate(NodeHandle h, uint64_t words) {
  assert(IsGrantedBlock(h, words));
  live_bytes_ -= words * sizeof(uint64_t);
  if (words > kMaxClassWords) {
    const uint32_t index = HandleSlab(h);
    FreeAligned(At(h));
    ReleaseEntry(index);
    large_bytes_ -= words * sizeof(uint64_t);
    return;
  }
  PushFree(h, words);
}

void SlabWordPool::Reset() {
  const uint64_t count = dir_count_.load(std::memory_order_relaxed);
  for (uint32_t i = 0; i < count; ++i) {
    DirEntry& e = Entry(i);
    uint64_t* base = e.base.load(std::memory_order_relaxed);
    if (base == nullptr) {
      continue;
    }
    if (e.large_words.load(std::memory_order_relaxed) != 0) {
      FreeAligned(base);
      ReleaseEntry(i);
    } else {
      PHTREE_UNPOISON_BLOCK(base, kSlabWords * sizeof(uint64_t));
    }
  }
  std::fill(std::begin(free_), std::end(free_), kInvalidNodeHandle);
  cur_slab_ = 0;
  slab_off_ = 0;
  large_bytes_ = 0;
  live_bytes_ = 0;
  free_bytes_ = 0;
}

bool SlabWordPool::Owns(const void* p) const {
  if (p == nullptr) {
    return false;
  }
  // Walk the RCU directory snapshot: lock-free readers assert Owns()
  // mid-traversal while the writer may be growing it. Count is loaded
  // before the directory: every later-published directory contains at
  // least the first `count` entries.
  const uint64_t count = dir_count_.load(std::memory_order_acquire);
  const DirEntry* dir = dir_.load(std::memory_order_acquire);
  const auto* q = static_cast<const unsigned char*>(p);
  for (uint64_t i = 0; i < count; ++i) {
    const auto* base = reinterpret_cast<const unsigned char*>(
        dir[i].base.load(std::memory_order_relaxed));
    if (base == nullptr) {
      continue;
    }
    if (dir[i].large_words.load(std::memory_order_relaxed) != 0) {
      if (q == base) {
        return true;
      }
      continue;
    }
    if (q >= base && q < base + kSlabWords * sizeof(uint64_t)) {
      return (q - base) % (kGranuleWords * sizeof(uint64_t)) == 0;
    }
  }
  return false;
}

bool SlabWordPool::IsGrantedBlock(NodeHandle h, uint64_t words) const {
  const uint32_t slab = HandleSlab(h);
  if (h == kInvalidNodeHandle || words != GrantWords(words) ||
      slab >= dir_count_.load(std::memory_order_acquire)) {
    return false;
  }
  const DirEntry& e = Entry(slab);
  if (e.base.load(std::memory_order_relaxed) == nullptr) {
    return false;
  }
  const uint64_t large = e.large_words.load(std::memory_order_relaxed);
  if (large != 0) {
    return HandleGranule(h) == 0 && large == words;
  }
  const uint64_t off = uint64_t{HandleGranule(h)} * kGranuleWords;
  return words <= kMaxClassWords && off + words <= kSlabWords &&
         FitsLines(off, words);
}

bool SlabWordPool::OnFreelist(NodeHandle h, uint64_t words) const {
  if (words > kMaxClassWords) {
    return false;
  }
  for (NodeHandle f = free_[ClassFor(words)]; f != kInvalidNodeHandle;
       f = static_cast<NodeHandle>(At(f)[words - 1])) {
    if (f == h) {
      return true;
    }
  }
  return false;
}

// ---- NodeArena ------------------------------------------------------------

NodeRef NodeArena::AllocateNode(uint32_t dim, uint32_t infix_len,
                                uint32_t postfix_len, bool store_values,
                                uint64_t stream_bits, FaultSite site) {
  if (FaultHit(site)) {
    return {};
  }
  const SlabWordPool::Block b =
      pool_.Allocate(Node::kHeaderWords + WordsFor(stream_bits));
  if (b.words == nullptr) {
    return {};
  }
  ++live_nodes_;
  return {new (b.words) Node(dim, infix_len, postfix_len, store_values),
          b.handle};
}

void NodeArena::DeleteNode(NodeRef ref) {
  assert(ref.ptr != nullptr && live_nodes_ > 0);
  assert(NodeAt(ref.handle) == ref.ptr);
  --live_nodes_;
  pool_.Deallocate(ref.handle, ref.ptr->BlockWords());
}

bool NodeArena::IsGrantedBlock(NodeRef ref) const {
  return NodeAt(ref.handle) == ref.ptr &&
         pool_.IsGrantedBlock(ref.handle, ref.ptr->BlockWords());
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
  // reader is alive, and the blocks are reclaimed with the rest of the
  // arena.
  retired_.clear();
  retired_bytes_ = 0;
  live_nodes_ = 0;
  pool_.Reset();
}

}  // namespace phtree
