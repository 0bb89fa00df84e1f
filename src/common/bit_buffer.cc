#include "common/bit_buffer.h"

#include <algorithm>
#include <bit>
#include <cstring>
#include <new>

#include "common/bits.h"
#include "common/fault.h"

namespace phtree {
namespace {

uint64_t* HeapAllocate(uint64_t words) {
  return new (std::nothrow) uint64_t[words];
}

void HeapDeallocate(uint64_t* block) { delete[] block; }

}  // namespace

// ---- Storage management ---------------------------------------------------

void BitBuffer::ReleaseStorage() {
  if (words_ == nullptr) {
    return;
  }
  if (pool_ != nullptr) {
    pool_->DeallocateWords(words_, cap_words_);
  } else {
    HeapDeallocate(words_);
  }
  words_ = nullptr;
  cap_words_ = 0;
}

void BitBuffer::Reallocate(uint64_t words) {
  if (!TryReallocate(words)) {
    throw std::bad_alloc();
  }
}

bool BitBuffer::TryReallocate(uint64_t words) {
  const uint64_t used = WordsFor(size_bits_);
  assert(words >= used);
  if (FaultHit(FaultSite::kWordAlloc)) {
    return false;
  }
  uint64_t* nw;
  uint64_t ncap;
  if (pool_ != nullptr) {
    nw = pool_->AllocateWords(words, &ncap);
  } else {
    nw = HeapAllocate(words);
    ncap = words;
  }
  if (nw == nullptr) {
    return false;
  }
  if (used > 0) {
    std::memcpy(nw, words_, used * sizeof(uint64_t));
  }
  if (ncap > used) {
    std::memset(nw + used, 0, (ncap - used) * sizeof(uint64_t));
  }
  if (words_ != nullptr) {
    if (pool_ != nullptr) {
      pool_->DeallocateWords(words_, cap_words_);
    } else {
      HeapDeallocate(words_);
    }
  }
  words_ = nw;
  cap_words_ = ncap;
  return true;
}

void BitBuffer::EnsureCapacity(uint64_t words) {
  if (words <= cap_words_) {
    return;
  }
  // Heap buffers grow geometrically (amortised O(1) append, like
  // std::vector); pool-backed buffers get the pool's size-class rounding,
  // which is itself geometric.
  const uint64_t request =
      pool_ != nullptr ? words : std::max(words, cap_words_ * 2);
  Reallocate(request);
}

void BitBuffer::Resize(uint64_t size_bits) {
  if (!TryResize(size_bits)) {
    throw std::bad_alloc();
  }
}

bool BitBuffer::TryResize(uint64_t size_bits) {
  const uint64_t new_words = WordsFor(size_bits);
  const uint64_t old_words = WordsFor(size_bits_);
  if (new_words > cap_words_) {
    const uint64_t request =
        pool_ != nullptr ? new_words : std::max(new_words, cap_words_ * 2);
    if (!TryReallocate(request)) {
      return false;
    }
  }
  if (new_words < old_words) {
    // Keep the invariant: words past the in-use region are zero.
    std::memset(words_ + new_words, 0,
                (old_words - new_words) * sizeof(uint64_t));
  }
  size_bits_ = size_bits;
  const uint32_t off = size_bits_ & 63;
  if (off != 0) {
    words_[new_words - 1] &= ~LowMask(64 - off);
  }
  // Pooled invariant: hold exactly the block the pool grants for the new
  // size, so capacity — and therefore the measured footprint — is a pure
  // function of the stored bits, never of the mutation history. Crossing a
  // size-class boundary trades blocks through the freelists with a memcpy
  // of the in-use words, the same order as the tail shift every LHC
  // mutation already performs.
  if (pool_ != nullptr) {
    const uint64_t want = new_words == 0 ? 0 : pool_->GrantWords(new_words);
    if (want == 0) {
      ReleaseStorage();
    } else if (want != cap_words_) {
      // Best-effort: a failed shrink trade keeps the (oversized) current
      // block — correctness is unaffected, and the exact-grant invariant is
      // re-established on the next successful trade.
      (void)TryReallocate(new_words);
    }
  }
  return true;
}

void BitBuffer::Clear() {
  size_bits_ = 0;
  if (pool_ != nullptr) {
    ReleaseStorage();
  } else if (words_ != nullptr) {
    std::memset(words_, 0, cap_words_ * sizeof(uint64_t));
  }
}

void BitBuffer::ShrinkToFit() {
  const uint64_t used = WordsFor(size_bits_);
  if (used == 0) {
    ReleaseStorage();
    return;
  }
  // Pooled buffers already hold the minimal granted block (Resize invariant).
  const uint64_t want = pool_ != nullptr ? pool_->GrantWords(used) : used;
  if (want != cap_words_) {
    Reallocate(used);
  }
}

BitBuffer::BitBuffer(const BitBuffer& other) : pool_(other.pool_) {
  const uint64_t used = WordsFor(other.size_bits_);
  if (used > 0) {
    Reallocate(used);
    std::memcpy(words_, other.words_, used * sizeof(uint64_t));
  }
  size_bits_ = other.size_bits_;
}

BitBuffer& BitBuffer::operator=(const BitBuffer& other) {
  if (this == &other) {
    return *this;
  }
  // Keeps its own pool: assignment copies content, not provenance.
  size_bits_ = 0;
  const uint64_t used = WordsFor(other.size_bits_);
  const uint64_t want =
      used == 0 ? 0 : (pool_ != nullptr ? pool_->GrantWords(used) : used);
  if (pool_ != nullptr && want != cap_words_) {
    // Re-establish the pool-backed exact-grant invariant for the new size.
    if (want == 0) {
      ReleaseStorage();
    } else {
      Reallocate(used);
    }
  } else if (used > cap_words_) {
    Reallocate(used);
  } else if (words_ != nullptr) {
    std::memset(words_, 0, cap_words_ * sizeof(uint64_t));
  }
  if (used > 0) {
    std::memcpy(words_, other.words_, used * sizeof(uint64_t));
  }
  size_bits_ = other.size_bits_;
  return *this;
}

BitBuffer::BitBuffer(BitBuffer&& other) noexcept
    : words_(other.words_),
      cap_words_(other.cap_words_),
      size_bits_(other.size_bits_),
      pool_(other.pool_) {
  other.words_ = nullptr;
  other.cap_words_ = 0;
  other.size_bits_ = 0;
}

BitBuffer& BitBuffer::operator=(BitBuffer&& other) noexcept {
  if (this == &other) {
    return *this;
  }
  ReleaseStorage();
  words_ = other.words_;
  cap_words_ = other.cap_words_;
  size_bits_ = other.size_bits_;
  pool_ = other.pool_;
  other.words_ = nullptr;
  other.cap_words_ = 0;
  other.size_bits_ = 0;
  return *this;
}

// ---- Bit access -----------------------------------------------------------

void BitBuffer::InsertBits(uint64_t pos, uint64_t n) {
  assert(pos <= size_bits_);
  if (n == 0) {
    return;
  }
  if ((pos & 63) == 0 && (n & 63) == 0) {
    // Word-aligned fast path (the PH-tree node's 64-bit payload region):
    // whole-word insertion is a single memmove.
    const uint64_t wi = pos >> 6;
    const uint64_t nw = n >> 6;
    const uint64_t used = WordsFor(size_bits_);
    EnsureCapacity(used + nw);
    std::memmove(words_ + wi + nw, words_ + wi,
                 (used - wi) * sizeof(uint64_t));
    std::memset(words_ + wi, 0, nw * sizeof(uint64_t));
    size_bits_ += n;
    return;
  }
  const uint64_t old_size = size_bits_;
  Resize(old_size + n);
  // Shift the tail [pos, old_size) right by n bits, processing 64-bit chunks
  // from the end so sources are read before they can be overwritten.
  uint64_t len = old_size - pos;
  uint64_t src_end = pos + len;
  uint64_t dst_end = pos + n + len;
  while (len >= 64) {
    src_end -= 64;
    dst_end -= 64;
    len -= 64;
    WriteBits(dst_end, 64, ReadBits(src_end, 64));
  }
  if (len > 0) {
    WriteBits(pos + n, static_cast<uint32_t>(len),
              ReadBits(pos, static_cast<uint32_t>(len)));
  }
  // Zero the inserted window.
  uint64_t p = pos;
  uint64_t remaining = n;
  while (remaining > 0) {
    const uint32_t chunk = remaining >= 64 ? 64 : static_cast<uint32_t>(remaining);
    WriteBits(p, chunk, 0);
    p += chunk;
    remaining -= chunk;
  }
}

void BitBuffer::RemoveBits(uint64_t pos, uint64_t n) {
  assert(pos + n <= size_bits_);
  if (n == 0) {
    return;
  }
  if ((pos & 63) == 0 && (n & 63) == 0) {
    // Word-aligned fast path: whole-word removal is a single memmove.
    const uint64_t wi = pos >> 6;
    const uint64_t nw = n >> 6;
    const uint64_t used = WordsFor(size_bits_);
    std::memmove(words_ + wi, words_ + wi + nw,
                 (used - wi - nw) * sizeof(uint64_t));
    std::memset(words_ + used - nw, 0, nw * sizeof(uint64_t));
    Resize(size_bits_ - n);  // applies the pool-backed shrink rule
    return;
  }
  // Shift the tail [pos+n, size) left by n bits, processing forward.
  uint64_t len = size_bits_ - pos - n;
  uint64_t src = pos + n;
  uint64_t dst = pos;
  while (len >= 64) {
    WriteBits(dst, 64, ReadBits(src, 64));
    src += 64;
    dst += 64;
    len -= 64;
  }
  if (len > 0) {
    WriteBits(dst, static_cast<uint32_t>(len),
              ReadBits(src, static_cast<uint32_t>(len)));
  }
  Resize(size_bits_ - n);
}

uint64_t BitBuffer::CountOnes(uint64_t pos) const {
  assert(pos <= size_bits_);
  uint64_t ones = 0;
  const uint64_t full_words = pos >> 6;
  for (uint64_t i = 0; i < full_words; ++i) {
    ones += static_cast<uint64_t>(std::popcount(words_[i]));
  }
  const uint32_t rem = static_cast<uint32_t>(pos & 63);
  if (rem > 0) {
    ones += static_cast<uint64_t>(
        std::popcount(ReadBits(full_words << 6, rem)));
  }
  return ones;
}

void BitBuffer::CopyFrom(const BitBuffer& src, uint64_t src_pos,
                         uint64_t dst_pos, uint64_t n) {
  assert(this != &src);
  assert(src_pos + n <= src.size_bits_);
  assert(dst_pos + n <= size_bits_);
  while (n >= 64) {
    WriteBits(dst_pos, 64, src.ReadBits(src_pos, 64));
    src_pos += 64;
    dst_pos += 64;
    n -= 64;
  }
  if (n > 0) {
    WriteBits(dst_pos, static_cast<uint32_t>(n),
              src.ReadBits(src_pos, static_cast<uint32_t>(n)));
  }
}

void BitBuffer::MoveBits(uint64_t src_pos, uint64_t dst_pos, uint64_t n) {
  assert(src_pos + n <= size_bits_ && dst_pos + n <= size_bits_);
  if (n == 0 || src_pos == dst_pos) {
    return;
  }
  if (dst_pos > src_pos) {
    // Shift right: process 64-bit chunks from the end.
    uint64_t len = n;
    uint64_t src_end = src_pos + n;
    uint64_t dst_end = dst_pos + n;
    while (len >= 64) {
      src_end -= 64;
      dst_end -= 64;
      len -= 64;
      WriteBits(dst_end, 64, ReadBits(src_end, 64));
    }
    if (len > 0) {
      WriteBits(dst_pos, static_cast<uint32_t>(len),
                ReadBits(src_pos, static_cast<uint32_t>(len)));
    }
    return;
  }
  // Shift left: process forward.
  uint64_t len = n;
  uint64_t src = src_pos;
  uint64_t dst = dst_pos;
  while (len >= 64) {
    WriteBits(dst, 64, ReadBits(src, 64));
    src += 64;
    dst += 64;
    len -= 64;
  }
  if (len > 0) {
    WriteBits(dst, static_cast<uint32_t>(len),
              ReadBits(src, static_cast<uint32_t>(len)));
  }
}

bool operator==(const BitBuffer& a, const BitBuffer& b) {
  if (a.size_bits_ != b.size_bits_) {
    return false;
  }
  const uint64_t used = BitBuffer::WordsFor(a.size_bits_);
  return used == 0 ||
         std::memcmp(a.words_, b.words_, used * sizeof(uint64_t)) == 0;
}

}  // namespace phtree
