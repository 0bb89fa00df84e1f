#include "phtree/node.h"

#include <algorithm>
#include <bit>
#include <cassert>

#include "common/fault.h"
#include "phtree/arena.h"

namespace phtree {

Node::Node(uint32_t dim, uint32_t infix_len, uint32_t postfix_len,
           bool store_values)
    : dim_(static_cast<uint16_t>(dim)),
      infix_len_(static_cast<uint8_t>(infix_len)),
      postfix_len_(static_cast<uint8_t>(postfix_len)),
      store_values_(store_values) {
  assert(dim >= 1 && dim <= kMaxDims);
  assert(infix_len + 1 + postfix_len <= kBitWidth);
}

// ---- Infix ------------------------------------------------------------

void Node::SetInfixFromKey(std::span<const uint64_t> key) {
  const uint32_t il = infix_len_;
  if (il == 0) {
    return;
  }
  const uint64_t base = infix_base();
  for (uint32_t d = 0; d < dim_; ++d) {
    const uint64_t seg = (key[d] >> (postfix_len_ + 1)) & LowMask(il);
    WriteBits(words(), base + static_cast<uint64_t>(d) * il, il, seg);
  }
}

// Lookup and ordinal iteration are inline in node.h (query hot path).

// ---- Mutation -------------------------------------------------------------

void Node::WritePostfixRecord(uint64_t record_pos,
                              std::span<const uint64_t> key) {
  const uint32_t pl = postfix_len_;
  for (uint32_t d = 0; d < dim_; ++d) {
    WriteBits(words(), record_pos + static_cast<uint64_t>(d) * pl, pl,
              key[d] & LowMask(pl));
  }
}

// ---- Representation switching ------------------------------------------

// Size comparisons use exact bit counts: any coarser rounding would hide
// the HC advantage at low dimensionality (k-1 bits per slot at full
// occupancy), and the switching decision must be a deterministic pure
// function of the node contents.
Node::Regions Node::RegionsFor(Repr repr, uint64_t n_entries,
                              uint64_t n_subs, uint64_t ib) const {
  const uint64_t np = n_entries - n_subs;
  const uint64_t s = hc_slots();
  const uint64_t st = stride();
  Regions r;
  switch (repr) {
    case Repr::kHc:
      // Value mode keeps handles in the 64-bit slots, key-only mode by sub
      // rank at the head (r.subs = 0).
      r.infix = store_values_ ? s * 64 : n_subs * 32;
      r.present = r.infix + ib;
      r.sub_bitmap = r.present + s;
      r.records = r.sub_bitmap + s;
      r.end = r.records + s * st;
      break;
    case Repr::kBhc:
      r.infix = np * vb();
      r.present = r.infix + ib;
      r.records = r.present + s;
      r.end = r.records + np * st;
      break;
    case Repr::kLhc:
    default:
      r.subs = np * vb();
      r.infix = r.subs + n_subs * 32;
      r.flags = r.infix + ib;
      r.addrs = r.flags + n_entries;
      r.records = r.addrs + n_entries * dim_;
      r.end = r.records + np * st;
      break;
  }
  return r;
}

Node::Repr Node::PickRepr(uint64_t n_entries, uint64_t n_subs,
                          uint64_t ib) const {
  const bool hc_allowed = dim_ <= kMaxHcDim;
  Repr best = Repr::kLhc;
  uint64_t best_bits = RegionsFor(Repr::kLhc, n_entries, n_subs, ib).end;
  if (hc_allowed && n_subs == 0) {
    const uint64_t b = RegionsFor(Repr::kBhc, n_entries, 0, ib).end;
    if (b < best_bits) {
      best = Repr::kBhc;
      best_bits = b;
    }
  }
  if (hc_allowed &&
      RegionsFor(Repr::kHc, n_entries, n_subs, ib).end < best_bits) {
    best = Repr::kHc;
  }
  return best;
}

/// Writes a node's stream into a fresh block: picks the layout for the
/// node's final occupancy, allocates the block, and emits the entries in
/// ascending address order, keeping the running entry, postfix and sub
/// ranks every layout indexes by.
class Node::StreamWriter {
 public:
  /// A node of `shape`'s dimensionality, postfix length and value mode
  /// holding `n_entries` entries (`n_subs` of them subs) over `infix_len`
  /// infix bits per dimension, in the layout PickRepr prescribes.
  StreamWriter(const Node& shape, uint64_t n_entries, uint64_t n_subs,
               uint32_t infix_len)
      : target_(shape.PickRepr(n_entries, n_subs,
                               uint64_t{shape.dim_} * infix_len)),
        r_(shape.RegionsFor(target_, n_entries, n_subs,
                            uint64_t{shape.dim_} * infix_len)),
        dim_(shape.dim_),
        infix_len_(infix_len),
        postfix_len_(shape.postfix_len_),
        stride_(shape.stride()),
        n_entries_(n_entries),
        n_subs_(n_subs),
        store_values_(shape.store_values_) {}

  const Regions& regions() const { return r_; }

  /// Allocates the node's zeroed block from `arena` at fault site `site`
  /// and writes its header; Emit then fills the stream. Empty on
  /// allocation failure.
  NodeRef Allocate(NodeArena& arena, FaultSite site) {
    const NodeRef ref = arena.AllocateNode(dim_, infix_len_, postfix_len_,
                                           store_values_, r_.end, site);
    if (ref) {
      ref.ptr->repr_ = target_;
      ref.ptr->num_entries_ = static_cast<uint32_t>(n_entries_);
      ref.ptr->num_subs_ = static_cast<uint32_t>(n_subs_);
      out_ = ref.ptr->words();
    }
    return ref;
  }

  /// Writes the next entry's flags, address and value or handle, and
  /// returns the bit position of its postfix record, which the caller
  /// fills (meaningless for a sub entry).
  uint64_t Emit(uint64_t addr, bool sub, uint64_t payload) {
    uint64_t record = 0;
    switch (target_) {
      case Repr::kLhc:
        SetBit(out_, r_.flags + idx_, sub ? 1 : 0);
        WriteBits(out_, r_.addrs + idx_ * dim_, dim_, addr);
        if (sub) {
          WriteBits(out_, r_.subs + srank_ * 32, 32, payload);
        } else {
          if (store_values_) {
            WriteBits(out_, prank_ * 64, 64, payload);
          }
          record = r_.records + prank_ * stride_;
        }
        break;
      case Repr::kHc:
        SetBit(out_, r_.present + addr, 1);
        SetBit(out_, r_.sub_bitmap + addr, sub ? 1 : 0);
        if (store_values_) {
          WriteBits(out_, addr * 64, 64, payload);
        } else if (sub) {
          WriteBits(out_, r_.subs + srank_ * 32, 32, payload);
        }
        record = r_.records + addr * stride_;
        break;
      case Repr::kBhc:
        SetBit(out_, r_.present + addr, 1);
        if (store_values_) {
          WriteBits(out_, prank_ * 64, 64, payload);
        }
        record = r_.records + prank_ * stride_;
        break;
    }
    if (sub) {
      ++srank_;
    } else {
      ++prank_;
    }
    ++idx_;
    return record;
  }

 private:
  Repr target_;
  Regions r_;
  uint32_t dim_;
  uint32_t infix_len_;
  uint32_t postfix_len_;
  uint64_t stride_;
  uint64_t n_entries_;
  uint64_t n_subs_;
  bool store_values_;
  uint64_t* out_ = nullptr;
  uint64_t idx_ = 0;
  uint64_t prank_ = 0;
  uint64_t srank_ = 0;
};

/// Reads a node's entries in ascending address order, keeping the running
/// entry, postfix and sub ranks StreamWriter keeps for its output: each
/// entry's payload, handle and record position is one read, never a
/// recount of the LHC flags or the present bitmap.
class Node::StreamReader {
 public:
  struct Entry {
    uint64_t addr = 0;
    bool sub = false;
    uint64_t payload = 0;  ///< value (0 in key-only mode), or sub handle
    uint64_t record = 0;   ///< bit position of a postfix entry's record
  };

  explicit StreamReader(const Node& node)
      : in_(node.words()),
        r_(node.RegionsFor(node.repr_, node.num_entries_, node.num_subs_,
                           node.infix_bits())),
        repr_(node.repr_),
        dim_(node.dim_),
        stride_(node.stride()),
        slots_(node.hc_slots()),
        n_(node.num_entries_),
        store_values_(node.store_values_) {}

  /// Reads the next entry into `e`; false after the last one.
  bool Next(Entry* e) {
    if (idx_ == n_) {
      return false;
    }
    if (repr_ == Repr::kLhc) {
      e->addr = ReadBits(in_, r_.addrs + idx_ * dim_, dim_);
      e->sub = GetBit(in_, r_.flags + idx_) != 0;
    } else {
      e->addr = FindNextOne(in_, r_.present + next_addr_,
                            r_.present + slots_) -
                r_.present;
      next_addr_ = e->addr + 1;
      e->sub = repr_ == Repr::kHc && GetBit(in_, r_.sub_bitmap + e->addr);
    }
    if (e->sub) {
      // Value-mode HC keeps a handle in its 64-bit slot, every other
      // layout by sub rank in 32-bit slots.
      e->payload = repr_ == Repr::kHc && store_values_
                       ? ReadBits(in_, e->addr * 64, 64)
                       : ReadBits(in_, r_.subs + srank_ * 32, 32);
      ++srank_;
    } else {
      // HC indexes values and records by address, LHC and BHC by rank.
      const uint64_t slot = repr_ == Repr::kHc ? e->addr : prank_;
      e->payload = store_values_ ? ReadBits(in_, slot * 64, 64) : 0;
      e->record = r_.records + slot * stride_;
      ++prank_;
    }
    ++idx_;
    return true;
  }

 private:
  const uint64_t* in_;
  Regions r_;
  Repr repr_;
  uint32_t dim_;
  uint64_t stride_;
  uint64_t slots_;
  uint64_t n_;
  bool store_values_;
  uint64_t idx_ = 0;
  uint64_t next_addr_ = 0;
  uint64_t prank_ = 0;
  uint64_t srank_ = 0;
};

NodeRef Node::TryEdit(NodeArena& arena, const EntryDelta& delta) const {
  using K = EntryDelta::Kind;
  // Every delta drops at most the entry at `addr` and adds at most one
  // entry at `new_addr`; a swap or an in-slot move does both at one
  // address.
  const bool drops = delta.kind == K::kRemove || delta.kind == K::kToSub ||
                     delta.kind == K::kToPostfix || delta.kind == K::kMove;
  const bool adds = delta.kind != K::kInfix && delta.kind != K::kRemove;
  const bool adds_sub = delta.kind == K::kToSub;
  uint64_t n2 = num_entries_;
  uint64_t ns2 = num_subs_;
  if (drops) {
    const uint64_t ord = FindOrdinal(delta.addr);
    assert(ord != kNoOrdinal);
    assert(OrdinalIsSub(ord) == (delta.kind == K::kToPostfix) ||
           delta.kind == K::kRemove);
    --n2;
    ns2 -= OrdinalIsSub(ord) ? 1 : 0;
  }
  if (adds) {
    assert((drops && delta.new_addr == delta.addr) ||
           FindOrdinal(delta.new_addr) == kNoOrdinal);
    ++n2;
    ns2 += adds_sub ? 1 : 0;
  }
  const bool new_infix = delta.infix_key != nullptr;
  StreamWriter w(*this, n2, ns2, new_infix ? delta.infix_len : infix_len_);
  // The single fallible step: one zeroed block for the whole edited node.
  // Nothing below can fail, and this node is never written.
  const NodeRef edited = w.Allocate(arena, FaultSite::kWordAlloc);
  if (!edited) {
    return {};
  }
  Node* node = edited.ptr;
  if (new_infix) {
    node->SetInfixFromKey({delta.infix_key, dim_});
  } else {
    CopyBits(words(), infix_base(), node->words(), w.regions().infix,
             infix_bits());
  }
  const auto emit_added = [&] {
    const uint64_t record = w.Emit(delta.new_addr, adds_sub, delta.payload);
    if (!adds_sub) {
      node->WritePostfixRecord(record, {delta.key, dim_});
    }
  };
  bool pending = adds;
  StreamReader::Entry e;
  for (StreamReader in(*this); in.Next(&e);) {
    if (pending && delta.new_addr < e.addr) {
      emit_added();
      pending = false;
    }
    if (drops && e.addr == delta.addr) {
      continue;
    }
    const uint64_t record = w.Emit(e.addr, e.sub, e.payload);
    if (!e.sub) {
      CopyBits(words(), e.record, node->words(), record, stride());
    }
  }
  if (pending) {
    emit_added();
  }
  return edited;
}

NodeRef Node::TryBuild(NodeArena& arena, uint32_t dim, uint32_t infix_len,
                       uint32_t postfix_len, bool store_values,
                       std::span<const uint64_t> infix_key,
                       std::span<const NodeEntry> entries,
                       const uint64_t* keys) {
  // A header-only node of the target's shape prices the representations.
  const Node shape(dim, infix_len, postfix_len, store_values);
  uint64_t n_subs = 0;
  for (const NodeEntry& e : entries) {
    n_subs += e.is_sub ? 1 : 0;
  }
  StreamWriter w(shape, entries.size(), n_subs, infix_len);
  const NodeRef built = w.Allocate(arena, FaultSite::kArenaNodeAlloc);
  if (!built) {
    return {};
  }
  built.ptr->SetInfixFromKey(infix_key);
  for (size_t i = 0; i < entries.size(); ++i) {
    const NodeEntry& e = entries[i];
    const uint64_t record = w.Emit(e.addr, e.is_sub, e.payload);
    if (!e.is_sub) {
      built.ptr->WritePostfixRecord(record, {keys + i * dim, dim});
    }
  }
  return built;
}

// ---- Accounting ---------------------------------------------------------

uint64_t Node::BlockWords() const {
  // The header plus the granted stream words: a pure function of the
  // stored bits, so summed over all nodes this equals NodeArena::LiveBytes()
  // — the space tables measure the allocator instead of modelling it.
  return SlabWordPool::GrantWords(kHeaderWords + WordsFor(CurrentReprBits()));
}

}  // namespace phtree
