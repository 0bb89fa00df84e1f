// A PH-tree node (paper Sect. 3.1-3.2). Each node sits at one bit level of
// the k-dimensional key space and stores:
//   * an infix: the prefix bits shared by everything below it (PATRICIA
//     prefix sharing),
//   * an entry table keyed by k-bit hypercube addresses, where each entry is
//     either a postfix (the remaining bits of one key, bit-packed) plus an
//     optional 64-bit payload, or a 32-bit arena handle of a sub-node.
// The entry table has two interchangeable representations behind one
// ordinal-based accessor surface:
//   * LHC: address-sorted compact table, O(k) binary-search access,
//     O(entries) space (Sect. 3.2),
//   * BHC: the hypercube layout of a sub-free node — a presence bitmap over
//     the 2^k addresses; O(1) bitmap probe, but only `entries` records and
//     payloads, stored by rank, instead of 2^k slots.
// The node switches automatically to whichever needs fewer bits (the
// PickRepr switching rule); BHC is never used above kMaxHcDim. The paper's
// dense 2^k-slot HC array is not kept: no measured tree picks it
// (DESIGN.md §2).
#ifndef PHTREE_PHTREE_NODE_H_
#define PHTREE_PHTREE_NODE_H_

#include <bit>
#include <cassert>
#include <cstdint>
#include <span>
#include <vector>

#include "common/bit_buffer.h"
#include "common/bits.h"

namespace phtree {

/// 32-bit arena handle of a Node: the slab-directory index and the 16-byte
/// granule offset of the node's block (SlabWordPool). Half the width of a
/// Node*, so in-node child slots cost 32 bits, and nodes never store raw
/// pointers to each other, so a node moves by republishing its handle.
/// Resolved through NodeArena::NodeAt.
using NodeHandle = uint32_t;

/// Sentinel handle meaning "no node".
inline constexpr NodeHandle kInvalidNodeHandle = ~NodeHandle{0};

class Node;
class NodeArena;

/// BHC (a bitmap of 2^k bits) is not used above this dimensionality: those
/// nodes are always LHC.
inline constexpr uint32_t kMaxHcDim = 20;

/// A node's address plus its 32-bit arena handle. Nodes store only handles
/// of their children, so callers keep the handle alongside the pointer
/// until the child link is written.
struct NodeRef {
  Node* ptr = nullptr;
  NodeHandle handle = kInvalidNodeHandle;

  explicit operator bool() const { return ptr != nullptr; }
};

/// One entry of a node written whole by Node::TryBuild.
struct NodeEntry {
  uint64_t addr = 0;     ///< hypercube address in the node
  uint64_t payload = 0;  ///< value of a postfix entry, handle of a sub entry
  bool is_sub = false;
};

/// A node is one arena block: this 16-byte header followed directly by the
/// node's bit stream. The header holds no size, capacity or pointer: the
/// stream length is CurrentReprBits(), and the block is exactly
/// BlockWords() words, a pure function of the contents. Nodes are written
/// only by TryBuild and TryEdit, into blocks from NodeArena.
class Node {
 public:
  /// Entry-table representation (see file comment).
  enum class Repr : uint8_t { kLhc = 0, kBhc = 1 };

  /// Sentinel ordinal meaning "no entry".
  static constexpr uint64_t kNoOrdinal = ~uint64_t{0};

  /// Words of the header in front of the stream.
  static constexpr uint64_t kHeaderWords = 2;

  Node(const Node&) = delete;
  Node& operator=(const Node&) = delete;

  uint32_t dim() const { return dim_; }
  uint32_t infix_len() const { return infix_len_; }
  uint32_t postfix_len() const { return postfix_len_; }
  Repr repr() const { return repr_; }
  /// True iff the node is BHC, whose ordinals are hypercube addresses.
  bool is_bhc() const { return repr_ == Repr::kBhc; }
  uint32_t num_entries() const { return num_entries_; }
  uint32_t num_subs() const { return num_subs_; }
  uint32_t num_postfixes() const { return num_entries_ - num_subs_; }

  // ---- Infix (prefix sharing) ----------------------------------------

  /// Overwrites bits [postfix_len+1, postfix_len+infix_len] of each
  /// dimension of `key` with this node's infix.
  void ReadInfixInto(std::span<uint64_t> key) const;

  /// Compares the infix with the corresponding bits of `key`. Returns the
  /// key-space bit index (LSB = 0) of the highest mismatching bit, or -1 if
  /// the infix matches.
  int MatchInfix(std::span<const uint64_t> key) const;

  // ---- Entry lookup ----------------------------------------------------

  /// Finds the entry with hypercube address `addr`. Returns an ordinal
  /// handle or kNoOrdinal. Ordinals are invalidated by any mutation.
  uint64_t FindOrdinal(uint64_t addr) const;

  bool OrdinalIsSub(uint64_t ord) const;
  uint64_t OrdinalAddr(uint64_t ord) const;
  /// Payload of the postfix entry `ord` (0 in key-only mode).
  uint64_t OrdinalPayload(uint64_t ord) const;
  /// Arena handle of the sub-node entry `ord` (which must be a sub entry).
  NodeHandle OrdinalSub(uint64_t ord) const;

  /// Overwrites bits [0, postfix_len) of each dimension of `key` with the
  /// postfix record of entry `ord` (which must be a postfix entry).
  void ReadPostfixInto(uint64_t ord, std::span<uint64_t> key) const;

  /// Compares the postfix record of `ord` with bits [0, postfix_len) of
  /// `key`. Returns the key-space bit index of the highest differing bit, or
  /// -1 if equal.
  int PostfixDivergence(uint64_t ord, std::span<const uint64_t> key) const;

  // ---- Reads by rank (NodeCursor) ----------------------------------------
  //
  // The ordinal accessors above each locate their region and count the
  // entry's rank. A cursor that visits many entries of one node reads
  // regions() once, keeps the running ranks itself, and reads each entry
  // by rank.

  /// Bit offsets of the regions of a stream (the layout below); `addrs`
  /// is 0 in BHC. Trivially default constructible, like the NodeCursor
  /// that holds one: RegionsFor sets every field.
  struct Regions {
    uint64_t subs;     ///< 32-bit sub handles
    uint64_t infix;
    uint64_t index;    ///< LHC is_sub flags, or BHC present bitmap
    uint64_t addrs;    ///< LHC address table
    uint64_t records;  ///< postfix records
    uint64_t end;      ///< the stream length
  };

  /// Where the regions of this node's stream start.
  Regions regions() const {
    return RegionsFor(repr_, num_entries_, num_subs_, infix_bits());
  }

  /// Arena handle in sub slot `rank` (the rank-th sub entry in address
  /// order) of this node, whose regions() are `r`. Acquire-loaded, as
  /// OrdinalSub is.
  NodeHandle SubAtRank(const Regions& r, uint64_t rank) const;

  /// Overwrites bits [0, postfix_len) of each dimension of `key` with the
  /// record of the rank-th postfix entry of this node, whose regions() are
  /// `r`, and returns that entry's payload (0 in key-only mode).
  uint64_t ReadPostfixAtRank(const Regions& r, uint64_t rank,
                             std::span<uint64_t> key) const;

  // ---- Ordinal iteration (ascending hypercube address) ------------------

  /// First ordinal whose address is >= addr, or kNoOrdinal.
  uint64_t OrdinalGE(uint64_t addr) const;

  /// Next ordinal after `ord`, or kNoOrdinal.
  uint64_t NextOrdinal(uint64_t ord) const;

  /// First ordinal, or kNoOrdinal if the node is empty.
  uint64_t FirstOrdinal() const { return OrdinalGE(0); }

  // ---- Mutation ----------------------------------------------------------
  //
  // A node's entries and infix never change where it stands. TryEdit writes
  // the edited node and TryBuild a node no one references yet, each into a
  // new block written once, in the representation the switching rule
  // prescribes for the final occupancy. Neither writes an existing node, so
  // a failed call leaves nothing to undo. The caller publishes an edited
  // node in the old one's place and then frees or retires the old block. A
  // published node changes only by a child-handle store (PublishSubAt) or a
  // payload store (PublishPayloadAt).

  /// One change to a node's entries or infix, applied by TryEdit. Build it
  /// with the named constructors; `key` and `infix_key` point at dim words
  /// that must outlive the TryEdit call.
  struct EntryDelta {
    enum class Kind : uint8_t {
      kInfix,          ///< the infix only; no entry changes
      kInsertPostfix,  ///< add the postfix entry `addr`
      kRemove,         ///< drop the entry `addr`
      kToSub,          ///< the postfix at `addr` becomes a sub
      kToPostfix,      ///< the sub at `addr` becomes a postfix
      kMove,           ///< the postfix at `addr` moves to `new_addr`
    };
    Kind kind = Kind::kInfix;
    uint64_t addr = 0;
    uint64_t new_addr = 0;  ///< where the added entry lands
    const uint64_t* key = nullptr;  ///< record source of an added postfix
    uint64_t payload = 0;           ///< its value, or the new sub's handle
    const uint64_t* infix_key = nullptr;  ///< the new infix's source, if any
    uint32_t infix_len = 0;               ///< the new infix length

    /// Adds a postfix entry at the free address `addr`.
    static EntryDelta InsertPostfix(uint64_t addr,
                                    std::span<const uint64_t> key,
                                    uint64_t value) {
      return {Kind::kInsertPostfix, addr, addr, key.data(), value};
    }
    /// Drops the entry at `addr`.
    static EntryDelta Remove(uint64_t addr) {
      return {Kind::kRemove, addr};
    }
    /// Replaces the postfix entry at `addr` with the sub-node `child`.
    static EntryDelta ToSub(uint64_t addr, NodeHandle child) {
      return {Kind::kToSub, addr, addr, nullptr, child};
    }
    /// Replaces the sub entry at `addr` with a postfix entry.
    static EntryDelta ToPostfix(uint64_t addr, std::span<const uint64_t> key,
                                uint64_t value) {
      return {Kind::kToPostfix, addr, addr, key.data(), value};
    }
    /// Moves the postfix entry at `addr` to `new_addr`, which is free or
    /// equal to `addr` (then only the record and payload change), giving
    /// it the record from `key` and payload `value`.
    static EntryDelta Move(uint64_t addr, uint64_t new_addr,
                           std::span<const uint64_t> key, uint64_t value) {
      return {Kind::kMove, addr, new_addr, key.data(), value};
    }
    /// Replaces the infix with `infix_len` bits per dimension: bits
    /// [postfix_len+1, postfix_len+infix_len] of `key`. A split trims a
    /// node's infix to its low bits; a splice extends a grandchild's.
    static EntryDelta Infix(uint32_t infix_len,
                            std::span<const uint64_t> key) {
      return {Kind::kInfix, 0, 0, nullptr, 0, key.data(), infix_len};
    }
  };

  /// This node with `delta` applied, written in one pass into a new block
  /// from `arena` (the kWordAlloc fault site). This node is not touched.
  /// Empty on allocation failure.
  [[nodiscard]] NodeRef TryEdit(NodeArena& arena,
                                const EntryDelta& delta) const;

  /// Writes a complete node once, in a block from `arena` (the
  /// kArenaNodeAlloc fault site) of exactly the size its contents are
  /// granted: the z-order builder's node write, and the mutation engine's
  /// first root, split parent and collision child. `entries` ascend by
  /// address; postfix entry i takes its record from the key at
  /// keys + i * dim, and the infix comes from `infix_key`. Empty on
  /// allocation failure.
  [[nodiscard]] static NodeRef TryBuild(NodeArena& arena, uint32_t dim,
                                        uint32_t infix_len,
                                        uint32_t postfix_len,
                                        bool store_values,
                                        std::span<const uint64_t> infix_key,
                                        std::span<const NodeEntry> entries,
                                        const uint64_t* keys);

  // ---- Publication ------------------------------------------------------
  //
  // A replacement node is published by swinging one child-handle slot in
  // the parent (or the tree root) with a single release store; the
  // matching acquire loads live in OrdinalSub. Every child slot is an
  // aligned 32-bit field near the stream head (by sub rank), so the store
  // cannot tear.

  /// Atomically republishes the child handle of sub entry `ord` with
  /// release ordering.
  void PublishSubAt(uint64_t ord, NodeHandle child);

  /// Atomically republishes the payload of postfix entry `ord` with release
  /// ordering (value slots are always 64-bit aligned at the stream head).
  /// The payload rewrite of both mutation policies: it never allocates.
  void PublishPayloadAt(uint64_t ord, uint64_t value);

  // ---- Accounting ---------------------------------------------------------

  /// Words of this node's block: the pool's grant for the header plus the
  /// current stream (SlabWordPool::GrantWords), a pure function of the
  /// contents.
  uint64_t BlockWords() const;

  /// Bytes owned by this node, exact: its whole block.
  uint64_t MemoryBytes() const { return BlockWords() * sizeof(uint64_t); }

  /// Exact bit size `repr` would need for the current occupancy (the
  /// validator re-derives the switching rule from it; exposed for tests).
  /// Bit precision matters: the two layouts differ only in their index, so
  /// a full sub-free k=2 node is BHC by 8 bits (a 4-bit bitmap against 4
  /// flags and 4 two-bit addresses). The BHC size is meaningful only for
  /// sub-free nodes.
  uint64_t ReprBits(Repr repr) const {
    return RegionsFor(repr, num_entries_, num_subs_, infix_bits()).end;
  }

  /// Bit size of the representation currently in use: the stream length.
  uint64_t CurrentReprBits() const { return ReprBits(repr_); }

 private:
  friend class NodeArena;
  friend class NodeCursor;  // decodes the index in batches (cursor.h)

  /// An empty LHC node whose stream is its (zero) infix; its block must
  /// hold kHeaderWords + WordsFor(dim * infix_len) zeroed words.
  Node(uint32_t dim, uint32_t infix_len, uint32_t postfix_len,
       bool store_values);

  // ---- Single-bit-stream node layout (paper Sect. 3.4, ref [9]) ----------
  //
  // The whole node is serialised into one bit stream, the words right after
  // the header. vb is the value width: 64 with stored values, 0 in
  // key-only mode. With n = num_entries, np = num_postfixes and
  // ns = num_subs, both representations share one stream:
  //   [values: np x vb] [subs: ns x 32] [infix: dim*il] [index]
  //   [postfix records: np x stride]
  // and differ only in the index:
  //   LHC: [is_sub flags: n] [addresses: n x dim, sorted ascending]
  //   BHC: [present bitmap: 2^dim] (sub-free nodes only; ordinals are
  //        addresses)
  // Every value and every postfix record sits at its entry's postfix rank
  // (PostfixRank), every sub handle at its sub rank.
  //
  // Value slots are 64-bit aligned at offset 0 (single-word reads), and
  // 32-bit sub slots follow them, so every child slot is aligned for one
  // atomic store; all other fields use exactly the bits they need. A
  // stream is written once, entry by entry, into a zeroed block
  // (StreamWriter), so bits past its end are zero up to the end of the
  // block.

  const uint64_t* words() const {
    return reinterpret_cast<const uint64_t*>(this) + kHeaderWords;
  }
  uint64_t* words() { return reinterpret_cast<uint64_t*>(this) + kHeaderWords; }

  uint64_t stride() const {
    return static_cast<uint64_t>(dim_) * postfix_len_;
  }
  uint64_t hc_slots() const { return uint64_t{1} << dim_; }
  uint64_t infix_bits() const {
    return static_cast<uint64_t>(dim_) * infix_len_;
  }
  /// Bits of one value slot.
  uint64_t vb() const { return store_values_ ? 64 : 0; }

  /// Start of the infix region, after the value and sub slots.
  uint64_t infix_base() const {
    return num_postfixes() * vb() + uint64_t{num_subs_} * 32;
  }
  /// Start of the index: LHC's is_sub flags, or BHC's present bitmap.
  uint64_t index_base() const { return infix_base() + infix_bits(); }
  /// Start of LHC's sorted address table, after the n is_sub flags.
  uint64_t lhc_addrs_base() const { return index_base() + num_entries_; }
  /// Start of the postfix records, after the index.
  uint64_t records_base() const {
    return index_base() + IndexBits(repr_, num_entries_);
  }
  /// Bits of the index of a `repr` stream holding `n_entries` entries, the
  /// one region in which the layouts differ: a 2^dim-bit bitmap for BHC, an
  /// is_sub flag and an address per entry for LHC.
  uint64_t IndexBits(Repr repr, uint64_t n_entries) const {
    return repr == Repr::kBhc ? hc_slots() : n_entries * (1 + uint64_t{dim_});
  }

  /// The representation the switching rule prescribes for a node of this
  /// node's dimensionality, postfix length and value mode holding
  /// (`n_entries`, `n_subs`) entries: the smaller legal one, ties going
  /// to LHC. The current representation plays no part.
  Repr PickRepr(uint64_t n_entries, uint64_t n_subs) const;

  /// The one computation of the region bases: where each region of a
  /// `repr` stream holding `n_entries` entries (`n_subs` of them subs) over
  /// `ib` infix bits starts, for this node's dimensionality, postfix
  /// length and value mode.
  Regions RegionsFor(Repr repr, uint64_t n_entries, uint64_t n_subs,
                     uint64_t ib) const;

  /// Writes a whole stream in one representation at one occupancy, entry
  /// by entry in ascending address order (TryEdit and TryBuild).
  class StreamWriter;

  /// Reads a node's entries in ascending address order with running
  /// ranks: the source side of TryEdit.
  class StreamReader;

  /// Number of postfix entries before entry `ord`: the slot of its value
  /// and of its postfix record. One count over the index serves both
  /// layouts: BHC counts the present addresses below `ord`, LHC subtracts
  /// the subs among the entries before it.
  uint64_t PostfixRank(uint64_t ord) const {
    const uint64_t base = index_base();
    const uint64_t ones = CountOnesInRange(words(), base, base + ord);
    return is_bhc() ? ones : ord - ones;
  }
  /// Bit position of the 32-bit handle slot of sub entry `ord`: its sub
  /// rank after the np x vb value slots.
  uint64_t SubSlotPos(uint64_t ord) const {
    return num_postfixes() * vb() + (ord - PostfixRank(ord)) * 32;
  }
  /// Bit position of the postfix record of entry `ord`.
  uint64_t RecordPos(uint64_t ord) const {
    return records_base() + PostfixRank(ord) * stride();
  }

  /// Stores bits [postfix_len+1, postfix_len+infix_len] of each dimension
  /// of `key` as this node's infix.
  void SetInfixFromKey(std::span<const uint64_t> key);

  void WritePostfixRecord(uint64_t record_pos, std::span<const uint64_t> key);

  uint16_t dim_;
  uint8_t infix_len_;
  uint8_t postfix_len_;
  bool store_values_;
  Repr repr_ = Repr::kLhc;
  uint32_t num_entries_ = 0;
  uint32_t num_subs_ = 0;
};

static_assert(sizeof(Node) == Node::kHeaderWords * sizeof(uint64_t),
              "the node header is one 16-byte granule");

// ---- Read-path accessors, inline -------------------------------------------
//
// Every query descent calls these several times per visited node (and every
// enumerating read once per entry, by rank), so they live in the header: the
// layout test folds into the caller and the bit extraction compiles to
// straight-line shifts/popcounts instead of cross-TU calls.

inline void Node::ReadInfixInto(std::span<uint64_t> key) const {
  const uint32_t il = infix_len_;
  if (il == 0) {
    return;
  }
  const uint64_t base = infix_base();
  for (uint32_t d = 0; d < dim_; ++d) {
    const uint64_t seg =
        ReadBits(words(), base + static_cast<uint64_t>(d) * il, il);
    key[d] = (key[d] & ~(LowMask(il) << (postfix_len_ + 1))) |
             (seg << (postfix_len_ + 1));
  }
}

inline int Node::MatchInfix(std::span<const uint64_t> key) const {
  const uint32_t il = infix_len_;
  if (il == 0) {
    return -1;
  }
  const uint64_t base = infix_base();
  uint64_t agg = 0;
  for (uint32_t d = 0; d < dim_; ++d) {
    const uint64_t stored =
        ReadBits(words(), base + static_cast<uint64_t>(d) * il, il);
    const uint64_t keyseg = (key[d] >> (postfix_len_ + 1)) & LowMask(il);
    agg |= stored ^ keyseg;
  }
  if (agg == 0) {
    return -1;
  }
  // Highest differing segment bit j corresponds to key bit postfix_len+1+j.
  const int j = static_cast<int>(std::bit_width(agg)) - 1;
  return static_cast<int>(postfix_len_) + 1 + j;
}

inline uint64_t Node::FindOrdinal(uint64_t addr) const {
  if (is_bhc()) {
    return GetBit(words(), index_base() + addr) ? addr : kNoOrdinal;
  }
  // Binary search over the packed, sorted address table (paper Sect. 3.2:
  // keys are extracted from the bit stream at each search step).
  const uint64_t base = lhc_addrs_base();
  uint64_t lo = 0;
  uint64_t hi = num_entries_;
  while (lo < hi) {
    const uint64_t mid = (lo + hi) / 2;
    const uint64_t a = ReadBits(words(), base + mid * dim_, dim_);
    if (a < addr) {
      lo = mid + 1;
    } else if (a > addr) {
      hi = mid;
    } else {
      return mid;
    }
  }
  return kNoOrdinal;
}

inline bool Node::OrdinalIsSub(uint64_t ord) const {
  // BHC nodes are sub-free by construction; LHC flags each entry.
  return !is_bhc() && GetBit(words(), index_base() + ord) != 0;
}

inline uint64_t Node::OrdinalAddr(uint64_t ord) const {
  if (is_bhc()) {
    return ord;
  }
  return ReadBits(words(), lhc_addrs_base() + ord * dim_, dim_);
}

inline uint64_t Node::OrdinalPayload(uint64_t ord) const {
  assert(!OrdinalIsSub(ord));
  if (!store_values_) {
    return 0;  // key-only mode: postfix entries carry no payload
  }
  return ReadBits(words(), PostfixRank(ord) * 64, 64);
}

inline NodeHandle Node::OrdinalSub(uint64_t ord) const {
  assert(OrdinalIsSub(ord));  // implies repr == kLhc
  // Acquire loads pair with PublishSubAt: a reader that observes a
  // republished handle also observes the replacement node's bit stream.
  return static_cast<NodeHandle>(AcquireLoad32(words(), SubSlotPos(ord)));
}

inline void Node::PublishSubAt(uint64_t ord, NodeHandle child) {
  assert(OrdinalIsSub(ord));
  ReleaseStore32(words(), SubSlotPos(ord), static_cast<uint32_t>(child));
}

inline void Node::PublishPayloadAt(uint64_t ord, uint64_t value) {
  assert(!OrdinalIsSub(ord));
  if (!store_values_) {
    return;
  }
  ReleaseStore64(words(), PostfixRank(ord) * 64, value);
}

inline void Node::ReadPostfixInto(uint64_t ord, std::span<uint64_t> key) const {
  const uint32_t pl = postfix_len_;
  if (pl == 0) {
    return;
  }
  const uint64_t record_pos = RecordPos(ord);
  for (uint32_t d = 0; d < dim_; ++d) {
    const uint64_t seg =
        ReadBits(words(), record_pos + static_cast<uint64_t>(d) * pl, pl);
    key[d] = (key[d] & ~LowMask(pl)) | seg;
  }
}

inline NodeHandle Node::SubAtRank(const Regions& r, uint64_t rank) const {
  assert(rank < num_subs_);
  return static_cast<NodeHandle>(AcquireLoad32(words(), r.subs + rank * 32));
}

inline uint64_t Node::ReadPostfixAtRank(const Regions& r, uint64_t rank,
                                        std::span<uint64_t> key) const {
  assert(rank < num_postfixes());
  const uint32_t pl = postfix_len_;
  if (pl != 0) {
    const uint64_t record_pos = r.records + rank * stride();
    for (uint32_t d = 0; d < dim_; ++d) {
      const uint64_t seg =
          ReadBits(words(), record_pos + static_cast<uint64_t>(d) * pl, pl);
      key[d] = (key[d] & ~LowMask(pl)) | seg;
    }
  }
  return store_values_ ? ReadBits(words(), rank * 64, 64) : 0;
}

inline int Node::PostfixDivergence(uint64_t ord,
                                   std::span<const uint64_t> key) const {
  const uint32_t pl = postfix_len_;
  if (pl == 0) {
    return -1;
  }
  const uint64_t record_pos = RecordPos(ord);
  uint64_t agg = 0;
  for (uint32_t d = 0; d < dim_; ++d) {
    const uint64_t seg =
        ReadBits(words(), record_pos + static_cast<uint64_t>(d) * pl, pl);
    agg |= seg ^ (key[d] & LowMask(pl));
  }
  if (agg == 0) {
    return -1;
  }
  return static_cast<int>(std::bit_width(agg)) - 1;
}

inline uint64_t Node::OrdinalGE(uint64_t addr) const {
  if (is_bhc()) {
    const uint64_t base = index_base();
    const uint64_t bit = FindNextOne(words(), base + addr, base + hc_slots());
    return bit == kNoBit ? kNoOrdinal : bit - base;
  }
  const uint64_t base = lhc_addrs_base();
  uint64_t lo = 0;
  uint64_t hi = num_entries_;
  while (lo < hi) {
    const uint64_t mid = (lo + hi) / 2;
    if (ReadBits(words(), base + mid * dim_, dim_) < addr) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo < num_entries_ ? lo : kNoOrdinal;
}

inline uint64_t Node::NextOrdinal(uint64_t ord) const {
  if (is_bhc()) {
    const uint64_t base = index_base();
    const uint64_t bit =
        FindNextOne(words(), base + ord + 1, base + hc_slots());
    return bit == kNoBit ? kNoOrdinal : bit - base;
  }
  return ord + 1 < num_entries_ ? ord + 1 : kNoOrdinal;
}

}  // namespace phtree

#endif  // PHTREE_PHTREE_NODE_H_
