// The traversal engine: every read path of the PH-tree that enumerates
// node entries (window queries, kNN child expansion, full scans for
// serialization and validation, and the paginated query API) does so
// through the cursors defined here. A lookup by key enumerates nothing:
// it is one descent by hypercube address (PhTree::Descend).
//
// Navigation follows paper Sect. 3.5: each visited node gets two bit masks
// m_lower / m_upper bounding the hypercube addresses that can intersect the
// query box, address validity is the two-operation test
//     (a | m_lower) == a  &&  (a & m_upper) == a,
// and valid addresses are enumerated with the carry-propagation successor
//     a' = (((a | ~m_upper) + 1) & m_upper) | m_lower.
//
// NodeCursor decodes each node once per visit and specializes the walk per
// node layout:
//   * BHC nodes (ordinals are addresses) alternate present-bitmap
//     skips with mask successor jumps, so neither absent slots nor
//     masked-out address runs are visited one by one — there is no
//     per-address rejection loop.
//   * LHC nodes are decoded in batches of kLhcScanBatch entries
//     (addresses, is_sub flags, subs before the batch), mask-filtered in
//     the batch, and, on populous nodes, a batch without a match
//     binary-searches to the next mask-implied lower bound.
// Either way the current entry's sub handle, postfix record and payload
// are read by rank from the cursor's running counts.
//
// TreeCursor stacks NodeCursors into a full depth-first scan with window /
// prefix restriction and suspend/resume: the key of the last delivered
// entry is a stable pagination token (resuming enumerates exactly the
// in-window entries strictly z-after the token, so mutations between pages
// — including erasing the token's key — never skip or repeat survivors).
#ifndef PHTREE_PHTREE_CURSOR_H_
#define PHTREE_PHTREE_CURSOR_H_

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstdint>
#include <span>
#include <type_traits>

#include "common/bits.h"
#include "common/simd.h"
#include "phtree/node.h"
#include "phtree/phtree.h"

namespace phtree {

/// Sentinel for "no hypercube address" (addresses are < 2^dim <= 2^63).
inline constexpr uint64_t kInvalidAddr = ~uint64_t{0};

/// True iff `addr` intersects the query box in every dimension (paper
/// Sect. 3.5): all fixed-one bits set, no bit outside the permitted set.
inline bool WindowAddrValid(uint64_t addr, uint64_t mask_lower,
                            uint64_t mask_upper) {
  return (addr | mask_lower) == addr && (addr & mask_upper) == addr;
}

/// The next valid address after a valid `addr`. Sets all non-permitted bit
/// positions to 1 so the +1 carry ripples through them, then restores the
/// fixed-one positions. Only meaningful for addr < mask_upper.
inline uint64_t WindowSuccessor(uint64_t addr, uint64_t mask_lower,
                                uint64_t mask_upper) {
  return (((addr | ~mask_upper) + 1) & mask_upper) | mask_lower;
}

/// The smallest valid address >= `addr` (which need not be valid), or
/// kInvalidAddr if none exists. Because the fixed-one and free positions
/// are disjoint, every valid address decomposes as mask_lower + w with w a
/// submask of the free positions, and the sum is monotone in w — so the
/// problem reduces to the smallest free-submask w >= addr - mask_lower.
/// If that target is itself a free submask it embeds directly; otherwise
/// let b be its highest non-free set bit: any admissible w is zero at b,
/// so its free bits above b must exceed the target's, and the minimum is
/// reached by carrying +1 through bit b into the free positions (the same
/// ripple trick as WindowSuccessor), leaving everything below b clear.
inline uint64_t WindowSuccessorGE(uint64_t addr, uint64_t mask_lower,
                                  uint64_t mask_upper) {
  if (addr <= mask_lower) {
    return mask_lower;  // mask_lower is the minimum valid address
  }
  const uint64_t free = mask_upper & ~mask_lower;
  const uint64_t target = addr - mask_lower;
  const uint64_t bad = target & ~free;
  if (bad == 0) {
    return mask_lower + target;
  }
  const uint32_t high = 63 - static_cast<uint32_t>(std::countl_zero(bad));
  const uint64_t filled = target | LowMask(high + 1) | ~free;
  const uint64_t w = (filled + 1) & free;  // w == 0: carry ran off the top
  return w == 0 ? kInvalidAddr : mask_lower + w;
}

/// The coordinate interval [lo, hi] a node region covers along one
/// dimension: every completion of the path word's bits above `low_bits`.
inline void RegionBounds(uint64_t path_word, uint32_t low_bits, uint64_t* lo,
                         uint64_t* hi) {
  *lo = path_word & ~LowMask(low_bits);
  *hi = *lo | LowMask(low_bits);
}

/// The m_lower / m_upper address masks of one node (paper Sect. 3.5).
struct WindowMasks {
  uint64_t lower = 0;  // m_L: address bits that must be 1
  uint64_t upper = 0;  // m_U: address bits that may be 1
  /// False iff no address is admissible, which ComputeWindowMasks reports
  /// exactly when the node's region misses the window: nothing below it
  /// can match.
  bool Possible() const { return (lower & ~upper) == 0; }
};

/// Computes the address masks for a node at `postfix_len` whose region path
/// bits (everything above the node's address bit) are already in
/// `path_key`. This is the window descent's one region test: if the
/// node's region (RegionBounds over postfix_len + 1 low bits) misses
/// [min[d], max[d]] in some dimension d, the masks are impossible, and
/// callers do not check overlap first. Otherwise bit d of the address
/// splits dimension d's region at the node's bit position, and each half
/// is admissible iff it meets the window: the lower half iff it reaches
/// min[d] (else m_L's bit is set), the upper half iff max[d] reaches it
/// (then m_U's bit is set).
inline WindowMasks ComputeWindowMasks(std::span<const uint64_t> path_key,
                                      std::span<const uint64_t> min,
                                      std::span<const uint64_t> max,
                                      uint32_t postfix_len) {
  WindowMasks m;
  for (size_t d = 0; d < path_key.size(); ++d) {
    uint64_t region_min;
    uint64_t region_max;
    RegionBounds(path_key[d], postfix_len + 1, &region_min, &region_max);
    if (min[d] > region_max || max[d] < region_min) {
      return {1, 0};  // the region misses the window
    }
    const uint64_t lower_half_max = region_min | LowMask(postfix_len);
    const uint64_t upper_half_min = region_min | (uint64_t{1} << postfix_len);
    m.lower = (m.lower << 1) | (min[d] > lower_half_max ? 1u : 0u);
    m.upper = (m.upper << 1) | (max[d] >= upper_half_min ? 1u : 0u);
  }
  return m;
}

/// LHC nodes with fewer entries walk linearly: a bind at the mask minimum
/// starts at ordinal 0, and a batch without a match never escalates to a
/// binary re-seek. Below this, a binary search costs more address reads
/// than it skips.
inline constexpr uint64_t kLhcSeekMinEntries = 16;

/// Entries of an LHC node the cursor decodes at once: addresses, is_sub
/// flags and the subs before them. simd::FindFirstStop finds the batch's
/// first stop (up to two AVX2 lanes' worth). Doubles as the miss budget: a
/// whole batch of mask-invalid addresses is the signal that the gap to the
/// successor address is genuinely wide, at which point LhcScan escalates
/// from linear stepping to a binary re-seek (dense windows usually stop
/// within the first batch, where a per-miss binary search would cost more
/// than the walk it replaces).
inline constexpr uint64_t kLhcScanBatch = 8;

/// Enumerates the entries of one node whose addresses intersect a window
/// mask pair, in ascending address order, and reads the current entry.
/// Each node is decoded once per visit: Bind reads its regions, each LHC
/// batch is unpacked once, and the current entry's sub handle, postfix
/// record and payload are read by rank from running counts, never
/// recounted from the start of the index. Plain-old-data and trivially
/// default constructible so stacks of cursors cost nothing to create;
/// Bind() establishes every field.
class NodeCursor {
 public:
  /// Positions on the first masked-in entry of `node` with address >=
  /// `start` (invalid if none).
  void Bind(const Node* node, uint64_t mask_lower, uint64_t mask_upper,
            uint64_t start = 0) {
    node_ = node;
    r_ = node->regions();
    lower_ = mask_lower;
    upper_ = mask_upper;
    n_ = node->num_entries();
    bhc_ = node->is_bhc();  // BHC: ordinals are addresses
    counted_ = 0;
    counted_ones_ = 0;
    SeekGE(start);
  }

  /// Positions on the first entry with no window restriction.
  void BindAll(const Node* node) { Bind(node, 0, LowMask(node->dim())); }

  bool valid() const { return ord_ != Node::kNoOrdinal; }
  const Node* node() const { return node_; }
  /// Hypercube address of the current entry (valid() only).
  uint64_t addr() const { return addr_; }
  /// Ordinal of the current entry, for the Node::Ordinal* accessors.
  uint64_t ordinal() const { return ord_; }

  /// True iff the current entry is a sub-node.
  bool is_sub() const { return !bhc_ && ((flags_ >> (7 - pos_)) & 1) != 0; }

  /// Arena handle of the current entry, which must be a sub-node: one
  /// acquire load, as Node::OrdinalSub.
  NodeHandle sub() const {
    assert(is_sub());
    return node_->SubAtRank(r_, SubRank());
  }

  /// Overwrites bits [0, postfix_len) of each dimension of `key` with the
  /// current entry's postfix record, which must not be a sub-node, and
  /// returns its payload (0 in key-only mode).
  uint64_t ReadPostfix(std::span<uint64_t> key) const {
    assert(!is_sub());
    return node_->ReadPostfixAtRank(r_, bhc_ ? counted_ones_ : ord_ - SubRank(),
                                    key);
  }

  /// Advances to the next masked-in entry.
  void Next() {
    assert(valid());
    if (addr_ >= upper_) {
      ord_ = Node::kNoOrdinal;  // upper_ is the largest admissible address
      return;
    }
    if (bhc_) {
      HcScan(WindowSuccessor(addr_, lower_, upper_));
      return;
    }
    // The rest of the decoded batch first, then the batches after it.
    if (rest_ != 0) {
      const uint32_t i = static_cast<uint32_t>(std::countr_zero(rest_));
      rest_ &= static_cast<uint8_t>(rest_ - 1);
      ord_ += i - pos_;
      pos_ = static_cast<uint8_t>(i);
      addr_ = batch_[i];
      return;
    }
    if (batch_[batch_n_ - 1] > upper_) {
      ord_ = Node::kNoOrdinal;  // table is sorted: nothing admissible remains
      return;
    }
    LhcScan(ord_ - pos_ + batch_n_);
  }

 private:
  const uint64_t* words() const { return node_->words(); }

  /// Positions on the first masked-in entry with address >= `start`.
  void SeekGE(uint64_t start) {
    const uint64_t first = WindowSuccessorGE(start, lower_, upper_);
    if (first == kInvalidAddr) {
      ord_ = Node::kNoOrdinal;
      return;
    }
    if (lower_ == upper_) {
      // Fully constrained node (a window one cell wide in every dimension
      // at this level): exactly one admissible address, so one probe
      // decides.
      const uint64_t ord = node_->FindOrdinal(lower_);
      if (ord == Node::kNoOrdinal) {
        ord_ = Node::kNoOrdinal;
      } else if (bhc_) {
        BhcAt(ord);
      } else {
        batch_[0] = lower_;
        LoadBatch(ord, 1, 0);
      }
      return;
    }
    if (bhc_) {
      HcScan(first);
    } else if (first == lower_ && (lower_ == 0 || n_ < kLhcSeekMinEntries)) {
      LhcScan(0);  // nothing before the first batch can be skipped
    } else {
      LhcScan(node_->OrdinalGE(first));
    }
  }

  /// Ones of the index (LHC is_sub flags, BHC present bitmap) before
  /// index bit `pos`, counted on from the last call: a bound cursor only
  /// moves forward, so a walk over the node counts each index bit once.
  uint64_t OnesBefore(uint64_t pos) {
    assert(pos >= counted_);
    counted_ones_ +=
        CountOnesInRange(words(), r_.index + counted_, r_.index + pos);
    counted_ = pos;
    return counted_ones_;
  }

  /// Sub rank of the current LHC entry: counted_ones_ counts the subs up
  /// to the batch's end, so drop those at and after the current entry.
  uint64_t SubRank() const {
    return counted_ones_ -
           static_cast<uint64_t>(std::popcount(
               static_cast<uint32_t>(flags_ & (0xFFu >> pos_))));
  }

  /// Makes the BHC entry `ord` current, with its postfix rank in
  /// counted_ones_.
  void BhcAt(uint64_t ord) {
    ord_ = ord;
    addr_ = ord;
    OnesBefore(ord);
  }

  /// Completes the decode of the LHC batch of `count` entries at ordinal
  /// `ord`, whose addresses are in batch_: reads its is_sub flags, counts
  /// the subs up to its end, makes entry `pos` current and marks the
  /// masked-in entries after it, which Next() then steps through.
  void LoadBatch(uint64_t ord, uint64_t count, uint64_t pos) {
    const uint32_t flags = static_cast<uint32_t>(
        ReadBits(words(), r_.index + ord, static_cast<uint32_t>(count)));
    flags_ = static_cast<uint8_t>(flags << (kLhcScanBatch - count));
    counted_ones_ = OnesBefore(ord) + static_cast<uint64_t>(
                                          std::popcount(flags));
    counted_ = ord + count;
    batch_n_ = static_cast<uint8_t>(count);
    pos_ = static_cast<uint8_t>(pos);
    uint32_t rest = 0;
    for (uint64_t i = pos + 1; i < count; ++i) {
      rest |= static_cast<uint32_t>(WindowAddrValid(batch_[i], lower_, upper_))
              << i;
    }
    rest_ = static_cast<uint8_t>(rest);
    ord_ = ord + pos;
    addr_ = batch_[pos];
  }

  /// BHC walk from the mask-valid candidate `candidate` (kInvalidAddr =
  /// end): alternates present-bitmap skips with mask successor jumps.
  void HcScan(uint64_t candidate) {
    const uint64_t end = r_.index + (uint64_t{1} << node_->dim());
    while (candidate != kInvalidAddr) {
      const uint64_t bit = FindNextOne(words(), r_.index + candidate, end);
      if (bit == kNoBit) {
        break;
      }
      const uint64_t present = bit - r_.index;
      if (WindowAddrValid(present, lower_, upper_)) {
        BhcAt(present);  // BHC ordinals are the addresses themselves
        return;
      }
      candidate = WindowSuccessorGE(present + 1, lower_, upper_);
    }
    ord_ = Node::kNoOrdinal;
  }

  /// LHC walk from ordinal `ord` (kNoOrdinal = end). Decodes the sorted
  /// address table in batches of kLhcScanBatch and lets the SIMD kernel
  /// find the first stop — a window-valid address or one past the window —
  /// instead of filtering entry by entry; Next() then steps through the
  /// rest of the batch. A stop-free batch means eight consecutive misses,
  /// which (on nodes of at least kLhcSeekMinEntries) escalates to a binary
  /// re-seek at the mask-implied successor.
  void LhcScan(uint64_t ord) {
    const bool may_seek = n_ >= kLhcSeekMinEntries;
    const uint32_t dim = node_->dim();
    while (ord < n_) {
      const uint64_t count = std::min<uint64_t>(n_ - ord, kLhcScanBatch);
      const uint64_t base = r_.addrs + ord * dim;
      for (uint64_t i = 0; i < count; ++i) {
        batch_[i] = ReadBits(words(), base + i * dim, dim);
      }
      const size_t stop = simd::FindFirstStop(batch_, count, lower_, upper_);
      if (stop < count) {
        if (batch_[stop] > upper_) {
          break;  // table is sorted: nothing admissible remains
        }
        LoadBatch(ord, count, stop);
        return;
      }
      // Whole batch mask-invalid (and still below the window top).
      if (may_seek && count == kLhcScanBatch) {
        const uint64_t next =
            WindowSuccessorGE(batch_[count - 1] + 1, lower_, upper_);
        if (next == kInvalidAddr) {
          break;
        }
        ord = node_->OrdinalGE(next);
      } else {
        ord += count;
      }
    }
    ord_ = Node::kNoOrdinal;
  }

  const Node* node_;
  Node::Regions r_;
  uint64_t lower_;
  uint64_t upper_;
  uint64_t ord_;
  uint64_t addr_;
  // Running index count: counted_ones_ ones before index bit counted_. For
  // LHC that is the end of the batch; for BHC the current address, so
  // counted_ones_ is the current entry's postfix rank.
  uint64_t counted_;
  uint64_t counted_ones_;
  uint32_t n_;
  bool bhc_;
  // The decoded LHC batch: batch_n_ addresses, their is_sub flags (entry i
  // at bit 7 - i), the current entry's position in it, and the masked-in
  // entries after it (entry i at bit i).
  uint8_t batch_n_;
  uint8_t pos_;
  uint8_t flags_;
  uint8_t rest_;
  uint64_t batch_[kLhcScanBatch];
};

static_assert(std::is_trivially_default_constructible_v<NodeCursor>,
              "a TreeCursor's 64 frames must cost nothing to create");

/// One page of a paginated window scan (PhTree::QueryWindowPage).
struct WindowPage {
  std::vector<std::pair<PhKey, uint64_t>> entries;
  /// True iff at least one further in-window entry exists past this page.
  bool more = false;
  /// Pass as `resume_after` to continue (meaningful while `more`): the key
  /// of the last delivered entry. The token stays stable under concurrent
  /// mutation — resuming yields exactly the in-window entries strictly
  /// z-greater than it at resume time, even if its key has been erased.
  PhKey token;
};

/// Depth-first scan over a PhTree in z-order (ascending hypercube address
/// at every node — the exact order ForEach and the window queries have
/// always produced). Supports full scans, window scans, prefix-restricted
/// scans and resumption strictly after a token key. Storage is inline
/// (about 13 KB, no heap): descending one level consumes at least one key
/// bit, so kBitWidth frames always suffice.
///
/// The tree must outlive the cursor and must not be modified while one is
/// live (take a fresh cursor with a resume token to scan across mutations).
class TreeCursor {
 public:
  /// An exhausted cursor; assign or construct over it to use it.
  TreeCursor() = default;

  /// Full scan over every entry of `tree`.
  explicit TreeCursor(const PhTree& tree);

  /// Scan of the axis-aligned box [min, max] (inclusive; empty if
  /// min > max in any dimension).
  TreeCursor(const PhTree& tree, std::span<const uint64_t> min,
             std::span<const uint64_t> max);

  /// Window scan resumed strictly after the key `resume_after` (which need
  /// not be stored or inside the window).
  TreeCursor(const PhTree& tree, std::span<const uint64_t> min,
             std::span<const uint64_t> max,
             std::span<const uint64_t> resume_after);

  /// Scan of every entry whose top `prefix_bits` bit layers (per
  /// dimension, MSB first) equal those of `prefix`. prefix_bits == 0 is a
  /// full scan, prefix_bits == 64 a point lookup.
  static TreeCursor Prefix(const PhTree& tree,
                           std::span<const uint64_t> prefix,
                           uint32_t prefix_bits);

  bool Valid() const { return valid_; }

  /// Advances to the next matching entry.
  void Next() {
    assert(valid_);
    Advance();
  }

  /// Key of the current entry; points into the cursor's buffer, valid
  /// until the next Next(). Doubles as the pagination resume token.
  std::span<const uint64_t> key() const { return {key_, dim_}; }

  /// Payload of the current entry.
  uint64_t value() const { return value_; }

 private:
  void InitWindow(const PhTree& tree, std::span<const uint64_t> min,
                  std::span<const uint64_t> max, const uint64_t* resume);
  /// Computes the node's masks against the window (key_ already carries
  /// its path bits) and pushes a frame bound at its first masked-in entry
  /// with address >= `start`; false, pushing nothing, if the node's region
  /// misses the window.
  bool PushNode(const Node* node, uint64_t start = 0);
  /// Descends along `token`'s address path, leaving every stack cursor
  /// positioned on the first entry of its node not strictly before the
  /// token, then Advance()s to the first strictly-greater match. `root` is
  /// the caller's root snapshot (an MVCC reader must not load the root
  /// twice within one cursor setup).
  void SeekPast(const Node* root, const uint64_t* token);
  /// Resumes the stack; sets valid_/key_/value_ on the next match.
  void Advance();
  bool KeyInWindow() const;

  std::span<uint64_t> key_span() { return {key_, dim_}; }

  const PhTree* tree_ = nullptr;
  uint32_t dim_ = 0;
  bool bounded_ = false;
  bool valid_ = false;
  uint64_t value_ = 0;
  size_t depth_ = 0;
  // Deliberately not value-initialized: constructors touch only the dim_
  // words and frames actually used, keeping cursor setup O(dim + depth).
  uint64_t key_[kMaxDims];
  uint64_t min_[kMaxDims];
  uint64_t max_[kMaxDims];
  NodeCursor stack_[kBitWidth];
};

}  // namespace phtree

#endif  // PHTREE_PHTREE_CURSOR_H_
