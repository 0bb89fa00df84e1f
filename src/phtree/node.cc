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

// Exact bit counts: the switching decision must be a deterministic pure
// function of the node contents, and the layouts differ by as little as a
// few index bits.
Node::Regions Node::RegionsFor(Repr repr, uint64_t n_entries,
                              uint64_t n_subs, uint64_t ib) const {
  const uint64_t np = n_entries - n_subs;
  Regions r;
  r.subs = np * vb();
  r.infix = r.subs + n_subs * 32;
  r.index = r.infix + ib;
  r.addrs = repr == Repr::kLhc ? r.index + n_entries : 0;
  r.records = r.index + IndexBits(repr, n_entries);
  r.end = r.records + np * stride();
  return r;
}

Node::Repr Node::PickRepr(uint64_t n_entries, uint64_t n_subs) const {
  const bool bhc_legal = n_subs == 0 && dim_ <= kMaxHcDim;
  return bhc_legal && IndexBits(Repr::kBhc, n_entries) <
                          IndexBits(Repr::kLhc, n_entries)
             ? Repr::kBhc
             : Repr::kLhc;
}

/// Writes a node's stream into a fresh block: picks the layout for the
/// node's final occupancy, allocates the block, and emits the entries in
/// ascending address order, keeping the running entry, postfix and sub
/// ranks the stream is indexed by.
class Node::StreamWriter {
 public:
  /// A node of `shape`'s dimensionality, postfix length and value mode
  /// holding `n_entries` entries (`n_subs` of them subs) over `infix_len`
  /// infix bits per dimension, in the layout PickRepr prescribes.
  StreamWriter(const Node& shape, uint64_t n_entries, uint64_t n_subs,
               uint32_t infix_len)
      : target_(shape.PickRepr(n_entries, n_subs)),
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

  /// Writes the next entry's index bits and its value or handle, and
  /// returns the bit position of its postfix record, which the caller
  /// fills (meaningless for a sub entry).
  uint64_t Emit(uint64_t addr, bool sub, uint64_t payload) {
    if (target_ == Repr::kBhc) {
      SetBit(out_, r_.index + addr, 1);
    } else {
      SetBit(out_, r_.index + idx_, sub ? 1 : 0);
      WriteBits(out_, r_.addrs + idx_ * dim_, dim_, addr);
    }
    ++idx_;
    if (sub) {
      WriteBits(out_, r_.subs + srank_++ * 32, 32, payload);
      return 0;
    }
    if (store_values_) {
      WriteBits(out_, prank_ * 64, 64, payload);
    }
    return r_.records + prank_++ * stride_;
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
        bhc_(node.is_bhc()),
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
    if (bhc_) {
      e->addr = FindNextOne(in_, r_.index + next_addr_, r_.index + slots_) -
                r_.index;
      next_addr_ = e->addr + 1;
      e->sub = false;
    } else {
      e->addr = ReadBits(in_, r_.addrs + idx_ * dim_, dim_);
      e->sub = GetBit(in_, r_.index + idx_) != 0;
    }
    ++idx_;
    if (e->sub) {
      e->payload = ReadBits(in_, r_.subs + srank_++ * 32, 32);
      return true;
    }
    e->payload = store_values_ ? ReadBits(in_, prank_ * 64, 64) : 0;
    e->record = r_.records + prank_++ * stride_;
    return true;
  }

 private:
  const uint64_t* in_;
  Regions r_;
  bool bhc_;
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
