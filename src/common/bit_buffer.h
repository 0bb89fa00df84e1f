// Packed bit-stream storage. Every PH-tree node serialises its prefix and
// postfix data into such buffers (paper Sect. 3.4, following the
// "tightly packed tries" idea of Germann et al. [9]): values occupy exactly
// the number of bits they need, and insert/delete shift the tail of the
// stream right/left (the shift costs discussed in Sect. 4.3.4).
#ifndef PHTREE_COMMON_BIT_BUFFER_H_
#define PHTREE_COMMON_BIT_BUFFER_H_

#include <atomic>
#include <bit>
#include <cassert>
#include <cstdint>

#include "common/bits.h"
#include "common/simd.h"

namespace phtree {

/// Backing store interface for BitBuffer word arrays. A pool hands out
/// blocks of 64-bit words and takes them back for reuse; the PH-tree's
/// NodeArena implements this with size-class freelists over bump-allocated
/// slabs so that node growth/shrink never hits the global allocator. A
/// BitBuffer without a pool falls back to operator new[]/delete[].
class WordPool {
 public:
  virtual ~WordPool() = default;

  /// Returns a block of at least `min_words` words, or nullptr if memory is
  /// exhausted; `*actual_words` receives the granted block size (callers
  /// must pass it back to DeallocateWords unchanged). Block contents are
  /// uninitialised.
  virtual uint64_t* AllocateWords(uint64_t min_words,
                                  uint64_t* actual_words) = 0;

  /// Returns a block obtained from AllocateWords; `words` is the granted
  /// size reported through `actual_words`.
  virtual void DeallocateWords(uint64_t* block, uint64_t words) = 0;

  /// The block size AllocateWords(min_words, ...) would grant, without
  /// allocating. Must be a pure function of `min_words`: BitBuffer keeps
  /// pool-backed capacity == GrantWords(used words), which makes the
  /// measured footprint a pure function of the stored data (insertion-order
  /// independent), like the paper's space accounting.
  virtual uint64_t GrantWords(uint64_t min_words) const = 0;
};

/// A growable sequence of bits with random access to arbitrary [pos, pos+n)
/// windows (n <= 64) and bit-granular insertion/removal.
///
/// Bit order: bit index 0 is the most significant bit of word 0. A window
/// read returns its bits right-aligned in the returned word, i.e., reading n
/// bits yields a value < 2^n whose MSB is the first (lowest-index) bit of
/// the window. This matches the MSB-first orientation of PH-tree keys.
///
/// Storage invariant: every word in [WordsFor(size_bits_), cap_words_) is
/// zero, and the unused low bits of the last in-use word are zero. Growth
/// therefore exposes zero bits without touching memory.
class BitBuffer {
 public:
  BitBuffer() = default;

  /// Constructs an empty buffer whose storage comes from `pool` (nullptr =
  /// global heap).
  explicit BitBuffer(WordPool* pool) : pool_(pool) {}

  /// Constructs a buffer of `size_bits` zero bits.
  explicit BitBuffer(uint64_t size_bits, WordPool* pool = nullptr)
      : pool_(pool) {
    Resize(size_bits);
  }

  BitBuffer(const BitBuffer& other);
  BitBuffer& operator=(const BitBuffer& other);
  BitBuffer(BitBuffer&& other) noexcept;
  BitBuffer& operator=(BitBuffer&& other) noexcept;
  ~BitBuffer() { ReleaseStorage(); }

  /// The pool backing this buffer (nullptr = global heap).
  WordPool* pool() const { return pool_; }

  /// Number of valid bits in the buffer.
  uint64_t size_bits() const { return size_bits_; }

  bool empty() const { return size_bits_ == 0; }

  /// Grows or shrinks the buffer to `size_bits`; new bits are zero. Pooled
  /// buffers always hold exactly the block GrantWords prescribes for the
  /// new size, trading blocks through the pool's freelists at size-class
  /// boundaries; the swap is a memcpy of the in-use words, the same order
  /// as the tail shift every LHC mutation already performs.
  /// Throws std::bad_alloc if growth cannot be satisfied.
  void Resize(uint64_t size_bits);

  /// Fallible Resize: returns false — leaving the buffer byte-identical to
  /// its prior state — if a required allocation fails. A failed *shrink*
  /// block trade is absorbed: the buffer keeps its oversized block and
  /// TryResize still returns true (only the pool-backed exact-grant space
  /// invariant is relaxed, never correctness).
  [[nodiscard]] bool TryResize(uint64_t size_bits);

  /// True if Resize(new_bits) would have to swap the backing block (and
  /// could therefore fail). Mutators use this to prove an in-place fast
  /// path is infallible before touching the stream.
  bool ResizeWouldRelocate(uint64_t new_bits) const {
    const uint64_t nw = WordsFor(new_bits);
    if (pool_ != nullptr) {
      const uint64_t want = nw == 0 ? 0 : pool_->GrantWords(nw);
      return want != 0 && want != cap_words_;
    }
    return nw > cap_words_;
  }

  /// Removes all bits and releases pool-backed storage to the pool.
  void Clear();

  /// Reads `n` bits (0 <= n <= 64) starting at bit `pos`, right-aligned.
  uint64_t ReadBits(uint64_t pos, uint32_t n) const;

  /// Writes the low `n` bits of `value` at bit position `pos`.
  /// [pos, pos+n) must lie within the buffer.
  void WriteBits(uint64_t pos, uint32_t n, uint64_t value);

  /// Returns bit `pos` (0 or 1).
  uint64_t GetBit(uint64_t pos) const { return ReadBits(pos, 1); }

  /// Sets bit `pos` to the low bit of `value`.
  void SetBit(uint64_t pos, uint64_t value) { WriteBits(pos, 1, value & 1u); }

  /// Inserts `n` zero bits at position `pos`, shifting the tail right.
  /// `pos` may equal size_bits() (append).
  void InsertBits(uint64_t pos, uint64_t n);

  /// Removes the `n` bits at [pos, pos+n), shifting the tail left.
  void RemoveBits(uint64_t pos, uint64_t n);

  /// Number of 1-bits in [0, pos).
  uint64_t CountOnes(uint64_t pos) const;

  /// Index of the first 1-bit at position >= pos, or kNpos if none.
  uint64_t FindNextOne(uint64_t pos) const;

  /// Returned by FindNextOne when no further 1-bit exists.
  static constexpr uint64_t kNpos = ~uint64_t{0};

  /// Total number of 1-bits.
  uint64_t CountOnes() const { return CountOnes(size_bits_); }

  /// Number of 1-bits in [begin, end). Scans only the touched words —
  /// O((end-begin)/64) — unlike CountOnes(pos), which scans from bit 0.
  uint64_t CountOnesInRange(uint64_t begin, uint64_t end) const;

  /// Copies `n` bits from `src` starting at `src_pos` into this buffer at
  /// `dst_pos`. Ranges must be valid; buffers may not alias.
  void CopyFrom(const BitBuffer& src, uint64_t src_pos, uint64_t dst_pos,
                uint64_t n);

  /// Moves `n` bits from [src_pos, src_pos+n) to [dst_pos, dst_pos+n)
  /// within this buffer; the ranges may overlap (memmove semantics). Both
  /// ranges must lie within the buffer.
  void MoveBits(uint64_t src_pos, uint64_t dst_pos, uint64_t n);

  // ---- Atomic field access (MVCC publication points) ----------------------
  //
  // Copy-on-write mutations publish a replacement child handle with exactly
  // one atomic store into the live parent's stream while lock-free readers
  // traverse it. These helpers operate on naturally aligned 32-/64-bit
  // fields (pos % 32 == 0 resp. pos % 64 == 0) so the store is a single
  // machine word write: readers observe either the old or the new handle,
  // never a torn mix. All other words of a published node are immutable
  // while it is reachable, so the relaxed word loads in ReadBits & friends
  // plus these acquire/release field accessors make the whole read path
  // data-race-free under TSan and the C++ memory model.

  /// True iff [pos, pos+32) is a naturally aligned 32-bit field.
  static bool IsAligned32(uint64_t pos) { return (pos & 31) == 0; }

  /// Atomically reads the aligned 32-bit field at `pos` (acquire).
  uint32_t AcquireLoad32(uint64_t pos) const {
    assert(IsAligned32(pos) && pos + 32 <= size_bits_);
    return __atomic_load_n(Half32(pos), __ATOMIC_ACQUIRE);
  }

  /// Atomically writes the aligned 32-bit field at `pos` (release).
  void ReleaseStore32(uint64_t pos, uint32_t value) {
    assert(IsAligned32(pos) && pos + 32 <= size_bits_);
    __atomic_store_n(Half32(pos), value, __ATOMIC_RELEASE);
  }

  /// Atomically reads the aligned 64-bit field at `pos` (acquire).
  uint64_t AcquireLoad64(uint64_t pos) const {
    assert((pos & 63) == 0 && pos + 64 <= size_bits_);
    return __atomic_load_n(&words_[pos >> 6], __ATOMIC_ACQUIRE);
  }

  /// Atomically writes the aligned 64-bit field at `pos` (release).
  void ReleaseStore64(uint64_t pos, uint64_t value) {
    assert((pos & 63) == 0 && pos + 64 <= size_bits_);
    __atomic_store_n(&words_[pos >> 6], value, __ATOMIC_RELEASE);
  }

  /// Bytes of the backing block actually held by this buffer. Exact: for
  /// pool-backed buffers this is the granted size-class block, for heap
  /// buffers the allocated array.
  uint64_t MemoryBytes() const { return cap_words_ * sizeof(uint64_t); }

  /// Releases excess capacity (pool-backed buffers drop to the smallest
  /// size class covering the current size).
  void ShrinkToFit();

  friend bool operator==(const BitBuffer& a, const BitBuffer& b);

 private:
  static uint64_t WordsFor(uint64_t bits) { return (bits + 63) / 64; }

  /// Relaxed atomic load of backing word `wi`. The read path uses this for
  /// every word access so that a concurrent MVCC publication store into an
  /// unrelated field of the same word is an atomic/atomic overlap, not a
  /// data race; on x86/ARM it compiles to the same plain load.
  uint64_t LoadWord(uint64_t wi) const {
    return __atomic_load_n(&words_[wi], __ATOMIC_RELAXED);
  }

  /// Address of the aligned 32-bit half-word holding stream bits
  /// [pos, pos+32). Stream bit order is MSB-first within each word, so the
  /// field at an even 32-bit offset is the numerically *high* half — which
  /// on a little-endian machine is the uint32 at the higher address.
  uint32_t* Half32(uint64_t pos) const {
    uint32_t* halves = reinterpret_cast<uint32_t*>(&words_[pos >> 6]);
    const uint64_t upper = (pos & 32) == 0 ? 1 : 0;
    return halves + (std::endian::native == std::endian::little
                         ? upper
                         : 1 - upper);
  }

  /// Grows the backing block to hold at least `words` words, preserving
  /// content and the zero-tail invariant.
  void EnsureCapacity(uint64_t words);

  /// Replaces the backing block with one of capacity >= `words` (which must
  /// cover the current size), copying the in-use words. Throws
  /// std::bad_alloc on failure.
  void Reallocate(uint64_t words);

  /// Fallible Reallocate: returns false (buffer untouched) if the new block
  /// cannot be obtained. This is the single allocation choke point for all
  /// word-block growth — the kWordAlloc fault site lives here.
  [[nodiscard]] bool TryReallocate(uint64_t words);

  void ReleaseStorage();

  uint64_t* words_ = nullptr;
  uint64_t cap_words_ = 0;
  uint64_t size_bits_ = 0;
  WordPool* pool_ = nullptr;
};

// ---- Hot read-path primitives, inline -------------------------------------
//
// Every ordinal accessor of a PH-tree node funnels through these four
// functions, several times per visited entry (window scans alone issue tens
// of millions of calls per second). Defined here so they compile into
// straight-line bit arithmetic at the call site instead of a cross-TU call.

inline uint64_t BitBuffer::ReadBits(uint64_t pos, uint32_t n) const {
  assert(pos + n <= size_bits_);
  if (n == 0) {
    return 0;
  }
  const uint64_t wi = pos >> 6;
  const uint32_t off = static_cast<uint32_t>(pos & 63);
  if (off + n <= 64) {
    return (LoadWord(wi) >> (64 - off - n)) & LowMask(n);
  }
  const uint32_t n1 = 64 - off;  // bits taken from the first word
  const uint32_t n2 = n - n1;    // bits taken from the second word
  const uint64_t hi = LoadWord(wi) & LowMask(n1);
  const uint64_t lo = LoadWord(wi + 1) >> (64 - n2);
  return (hi << n2) | lo;
}

inline void BitBuffer::WriteBits(uint64_t pos, uint32_t n, uint64_t value) {
  assert(pos + n <= size_bits_);
  if (n == 0) {
    return;
  }
  value &= LowMask(n);
  const uint64_t wi = pos >> 6;
  const uint32_t off = static_cast<uint32_t>(pos & 63);
  if (off + n <= 64) {
    const uint32_t shift = 64 - off - n;
    words_[wi] = (words_[wi] & ~(LowMask(n) << shift)) | (value << shift);
    return;
  }
  const uint32_t n1 = 64 - off;
  const uint32_t n2 = n - n1;
  words_[wi] = (words_[wi] & ~LowMask(n1)) | (value >> n2);
  words_[wi + 1] =
      (words_[wi + 1] & LowMask(64 - n2)) | ((value & LowMask(n2)) << (64 - n2));
}

inline uint64_t BitBuffer::CountOnesInRange(uint64_t begin,
                                            uint64_t end) const {
  assert(begin <= end && end <= size_bits_);
  if (begin == end) {
    return 0;
  }
  const uint64_t first_word = begin >> 6;
  const uint64_t last_word = (end - 1) >> 6;
  if (first_word == last_word) {
    return static_cast<uint64_t>(std::popcount(
        ReadBits(begin, static_cast<uint32_t>(end - begin))));
  }
  uint64_t ones = 0;
  // Partial first word: bits [begin, word boundary).
  const uint32_t head = 64 - static_cast<uint32_t>(begin & 63);
  if (head < 64) {
    ones += static_cast<uint64_t>(std::popcount(ReadBits(begin, head)));
  } else {
    ones += static_cast<uint64_t>(std::popcount(LoadWord(first_word)));
  }
  // Middle words are whole: a flat word-popcount, routed through the SIMD
  // kernel layer once the span is long enough to amortise the indirect
  // call (large BHC bitmaps); short spans stay in this inline loop.
  if (const uint64_t middle = last_word - (first_word + 1); middle >= 2) {
    ones += simd::CountOnesWords(words_ + first_word + 1, middle);
  } else {
    for (uint64_t w = first_word + 1; w < last_word; ++w) {
      ones += static_cast<uint64_t>(std::popcount(LoadWord(w)));
    }
  }
  // Partial last word: bits [word boundary, end).
  const uint32_t tail = static_cast<uint32_t>(end - (last_word << 6));
  ones += static_cast<uint64_t>(std::popcount(ReadBits(last_word << 6, tail)));
  return ones;
}

inline uint64_t BitBuffer::FindNextOne(uint64_t pos) const {
  if (pos >= size_bits_) {
    return kNpos;
  }
  uint64_t wi = pos >> 6;
  const uint32_t off = static_cast<uint32_t>(pos & 63);
  // Mask away bits before `pos` in the first word (stream bit i lives at
  // word bit 63 - i%64, so earlier stream bits are the higher word bits).
  uint64_t word = LoadWord(wi) & LowMask(64 - off);
  const uint64_t n_words = WordsFor(size_bits_);
  while (word == 0) {
    if (++wi >= n_words) {
      return kNpos;
    }
    word = LoadWord(wi);
  }
  const uint64_t bit =
      (wi << 6) + static_cast<uint64_t>(std::countl_zero(word));
  return bit < size_bits_ ? bit : kNpos;
}

}  // namespace phtree

#endif  // PHTREE_COMMON_BIT_BUFFER_H_
