#include "phtree/node.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstring>

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

void Node::ReplaceInfix(uint32_t new_infix_len,
                        std::span<const uint64_t> segments) {
  // The infix precedes every region it can shift in all three
  // representations, so a resize-in-place is safe repr-independently.
  const uint64_t size = CurrentReprBits();
  const uint64_t base = infix_base();
  const uint64_t old_bits = infix_bits();
  const uint64_t new_bits = static_cast<uint64_t>(dim_) * new_infix_len;
  if (new_bits > old_bits) {
    InsertBits(words(), size, base, new_bits - old_bits);
  } else if (new_bits < old_bits) {
    RemoveBits(words(), size, base, old_bits - new_bits);
  }
  infix_len_ = static_cast<uint8_t>(new_infix_len);
  for (uint32_t d = 0; d < dim_; ++d) {
    WriteBits(words(), base + static_cast<uint64_t>(d) * new_infix_len,
              new_infix_len, segments[d]);
  }
}

NodeRef Node::TryTrimInfixToLow(NodeArena& arena, NodeHandle self,
                                uint32_t new_infix_len) {
  assert(new_infix_len <= infix_len_);
  const uint32_t il = infix_len_;
  const uint64_t base = infix_base();
  uint64_t segments[kMaxDims];
  for (uint32_t d = 0; d < dim_; ++d) {
    const uint64_t seg =
        ReadBits(words(), base + static_cast<uint64_t>(d) * il, il);
    segments[d] = seg & LowMask(new_infix_len);
  }
  // The infix length changes the representation sizes too, so the new infix
  // and any prescribed representation switch commit together.
  return TryReplaceInfixPolicy(arena, self, new_infix_len, segments);
}

NodeRef Node::TryAbsorbParentInfix(NodeArena& arena, NodeHandle self,
                                   const Node& parent,
                                   uint64_t addr_in_parent) {
  const uint32_t il = infix_len_;
  const uint32_t pil = parent.infix_len_;
  const uint32_t new_il = il + 1 + pil;
  assert(new_il + 1 + postfix_len_ <= kBitWidth);
  const uint64_t base = infix_base();
  const uint64_t pbase = parent.infix_base();
  uint64_t segments[kMaxDims];
  for (uint32_t d = 0; d < dim_; ++d) {
    const uint64_t my_seg =
        il > 0 ? ReadBits(words(), base + static_cast<uint64_t>(d) * il, il)
               : 0;
    const uint64_t parent_seg =
        pil > 0 ? ReadBits(parent.words(),
                           pbase + static_cast<uint64_t>(d) * pil, pil)
                : 0;
    const uint64_t addr_bit = (addr_in_parent >> (dim_ - 1 - d)) & 1u;
    segments[d] = (parent_seg << (1 + il)) | (addr_bit << il) | my_seg;
  }
  return TryReplaceInfixPolicy(arena, self, new_il, segments);
}

NodeRef Node::TryReplaceInfixPolicy(NodeArena& arena, NodeHandle self,
                                    uint32_t new_infix_len,
                                    const uint64_t* segments) {
  const uint64_t ib2 = static_cast<uint64_t>(dim_) * new_infix_len;
  const uint64_t n = num_entries_;
  const uint64_t np = num_postfixes();
  const Repr target = PickRepr(n, num_subs_, ib2);
  if (target == repr_ && !WouldMove(ReprBitsEx(target, n, np, ib2))) {
    ReplaceInfix(new_infix_len, {segments, dim_});
    return {this, self};
  }
  EntryDelta d;
  d.new_infix = true;
  d.new_infix_len = new_infix_len;
  d.infix_segments = segments;
  return TryRebuild(arena, target, d);
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

void Node::LhcInsertEntry(uint64_t p, uint64_t addr, bool is_sub,
                          uint64_t payload, const uint64_t* key) {
  const uint64_t n = num_entries_;
  const uint64_t np = num_postfixes();
  const uint64_t ns = num_subs_;
  const uint64_t ib = infix_bits();
  const uint64_t st = stride();
  const uint64_t rank = LhcPostfixRank(p);
  const uint64_t srank = p - rank;
  const uint64_t has_rec = is_sub ? 0 : 1;
  // Old and new (n+1 entries) region bases.
  const Regions o = RegionsFor(Repr::kLhc, n, ns, ib);
  const Regions r = RegionsFor(Repr::kLhc, n + 1, ns + 1 - has_rec, ib);
  // The grown tail is zero already (the stream's zero tail); move each
  // segment exactly once, highest source first (all displacements
  // are rightward, so later (lower) sources are never clobbered).
  MoveBits(words(), o.records + rank * st, r.records + (rank + has_rec) * st,
           (np - rank) * st);
  MoveBits(words(), o.records, r.records, rank * st);
  MoveBits(words(), o.addrs + p * dim_, r.addrs + (p + 1) * dim_,
           (n - p) * dim_);
  MoveBits(words(), o.addrs, r.addrs, p * dim_);
  MoveBits(words(), o.flags + p, r.flags + p + 1, n - p);
  MoveBits(words(), o.flags, r.flags, p);
  MoveBits(words(), o.infix, r.infix, ib);
  if (is_sub) {
    MoveBits(words(), o.subs + srank * 32, r.subs + (srank + 1) * 32,
             (ns - srank) * 32);
    MoveBits(words(), o.subs, r.subs, srank * 32);
    WriteBits(words(), r.subs + srank * 32, 32, payload);
  } else {
    MoveBits(words(), o.subs, r.subs, ns * 32);
    if (store_values_) {
      MoveBits(words(), rank * 64, (rank + 1) * 64, (np - rank) * 64);
      WriteBits(words(), rank * 64, 64, payload);
    }
  }
  // Write the new entry (every field is fully overwritten).
  SetBit(words(), r.flags + p, is_sub ? 1 : 0);
  WriteBits(words(), r.addrs + p * dim_, dim_, addr);
  ++num_entries_;
  if (is_sub) {
    ++num_subs_;
  } else {
    WritePostfixRecord(r.records + rank * st,
                       {key, static_cast<size_t>(dim_)});
  }
}

void Node::LhcRemoveEntry(uint64_t p) {
  const uint64_t n = num_entries_;
  const uint64_t np = num_postfixes();
  const uint64_t ns = num_subs_;
  const uint64_t ib = infix_bits();
  const uint64_t st = stride();
  const bool was_sub = OrdinalIsSub(p);
  const uint64_t rank = LhcPostfixRank(p);
  const uint64_t srank = p - rank;
  const uint64_t has_rec = was_sub ? 0 : 1;
  const Regions o = RegionsFor(Repr::kLhc, n, ns, ib);
  const Regions r = RegionsFor(Repr::kLhc, n - 1, ns - 1 + has_rec, ib);
  // Leftward displacements: process lowest source first.
  if (was_sub) {
    MoveBits(words(), o.subs, r.subs, srank * 32);
    MoveBits(words(), o.subs + (srank + 1) * 32, r.subs + srank * 32,
             (ns - 1 - srank) * 32);
  } else {
    if (store_values_) {
      MoveBits(words(), (rank + 1) * 64, rank * 64, (np - 1 - rank) * 64);
    }
    MoveBits(words(), o.subs, r.subs, ns * 32);
  }
  MoveBits(words(), o.infix, r.infix, ib);
  MoveBits(words(), o.flags, r.flags, p);
  MoveBits(words(), o.flags + p + 1, r.flags + p, n - 1 - p);
  MoveBits(words(), o.addrs, r.addrs, p * dim_);
  MoveBits(words(), o.addrs + (p + 1) * dim_, r.addrs + p * dim_,
           (n - 1 - p) * dim_);
  MoveBits(words(), o.records, r.records, rank * st);
  MoveBits(words(), o.records + (rank + has_rec) * st, r.records + rank * st,
           (np - rank - has_rec) * st);
  ClearBits(words(), r.records + (np - has_rec) * st, o.records + np * st);
  --num_entries_;
  if (was_sub) {
    --num_subs_;
  }
}

void Node::BhcInsertEntry(uint64_t addr, uint64_t value, const uint64_t* key) {
  const uint64_t np = num_entries_;  // sub-free: every entry is a postfix
  const uint64_t ib = infix_bits();
  const uint64_t st = stride();
  const uint64_t rank = BhcRank(addr);
  const Regions o = RegionsFor(Repr::kBhc, np, 0, ib);
  const Regions r = RegionsFor(Repr::kBhc, np + 1, 0, ib);
  // Rightward displacements: highest source first.
  MoveBits(words(), o.records + rank * st, r.records + (rank + 1) * st,
           (np - rank) * st);
  MoveBits(words(), o.records, r.records, rank * st);
  MoveBits(words(), o.present, r.present, hc_slots());
  MoveBits(words(), o.infix, r.infix, ib);
  if (store_values_) {
    MoveBits(words(), rank * 64, (rank + 1) * 64, (np - rank) * 64);
    WriteBits(words(), rank * 64, 64, value);
  }
  SetBit(words(), r.present + addr, 1);
  ++num_entries_;
  WritePostfixRecord(r.records + rank * st, {key, static_cast<size_t>(dim_)});
}

void Node::BhcRemoveEntry(uint64_t addr) {
  const uint64_t np = num_entries_;
  const uint64_t ib = infix_bits();
  const uint64_t st = stride();
  const uint64_t rank = BhcRank(addr);
  const Regions o = RegionsFor(Repr::kBhc, np, 0, ib);
  const Regions r = RegionsFor(Repr::kBhc, np - 1, 0, ib);
  SetBit(words(), o.present + addr, 0);
  // Leftward displacements: lowest source first.
  if (store_values_) {
    MoveBits(words(), (rank + 1) * 64, rank * 64, (np - 1 - rank) * 64);
  }
  MoveBits(words(), o.infix, r.infix, ib);
  MoveBits(words(), o.present, r.present, hc_slots());
  MoveBits(words(), o.records, r.records, rank * st);
  MoveBits(words(), o.records + (rank + 1) * st, r.records + rank * st,
           (np - 1 - rank) * st);
  ClearBits(words(), r.records + (np - 1) * st, o.records + np * st);
  --num_entries_;
}

void Node::InsertPostfixInPlace(uint64_t addr, std::span<const uint64_t> key,
                                uint64_t value) {
  switch (repr_) {
    case Repr::kHc:
      if (store_values_) {
        WriteBits(words(), addr * 64, 64, value);
      }
      SetBit(words(), hc_present_base() + addr, 1);
      SetBit(words(), hc_sub_base() + addr, 0);
      WritePostfixRecord(hc_records_base() + addr * stride(), key);
      ++num_entries_;
      break;
    case Repr::kBhc:
      BhcInsertEntry(addr, value, key.data());
      break;
    case Repr::kLhc:
    default: {
      const uint64_t ge = OrdinalGE(addr);
      const uint64_t p = ge == kNoOrdinal ? num_entries_ : ge;
      LhcInsertEntry(p, addr, /*is_sub=*/false, value, key.data());
      break;
    }
  }
}

NodeRef Node::TryInsertPostfix(NodeArena& arena, NodeHandle self,
                               uint64_t addr, std::span<const uint64_t> key,
                               uint64_t value) {
  assert(FindOrdinal(addr) == kNoOrdinal);
  const uint64_t n2 = num_entries_ + 1;
  const uint64_t np2 = n2 - num_subs_;
  const uint64_t ib = infix_bits();
  const Repr target = PickRepr(n2, num_subs_, ib);
  if (target == repr_ && !WouldMove(ReprBitsEx(target, n2, np2, ib))) {
    InsertPostfixInPlace(addr, key, value);
    return {this, self};
  }
  EntryDelta d;
  d.kind = EntryDelta::Kind::kInsertPostfix;
  d.addr = addr;
  d.key = key.data();
  d.payload = value;
  return TryRebuild(arena, target, d);
}

void Node::InsertSubInPlace(uint64_t addr, NodeHandle child) {
  assert(!is_bhc());
  if (is_hc()) {
    if (store_values_) {
      WriteBits(words(), addr * 64, 64, child);
    } else {
      const uint64_t pos = hc_subs_tail_base() + HcSubRank(addr) * 32;
      InsertBits(words(), CurrentReprBits(), pos, 32);
      WriteBits(words(), pos, 32, child);
    }
    SetBit(words(), hc_present_base() + addr, 1);
    SetBit(words(), hc_sub_base() + addr, 1);
    ++num_subs_;
    ++num_entries_;
  } else {
    const uint64_t ge = OrdinalGE(addr);
    const uint64_t p = ge == kNoOrdinal ? num_entries_ : ge;
    LhcInsertEntry(p, addr, /*is_sub=*/true, child, nullptr);
  }
}

NodeRef Node::TryInsertSub(NodeArena& arena, NodeHandle self, uint64_t addr,
                           NodeHandle child) {
  assert(FindOrdinal(addr) == kNoOrdinal);
  const uint64_t n2 = num_entries_ + 1;
  const uint64_t ns2 = uint64_t{num_subs_} + 1;
  const uint64_t ib = infix_bits();
  // target is never kBhc (ns2 > 0), so a BHC node always takes the rebuild
  // path — rebuilt atomically out of its sub-free form into the target.
  const Repr target = PickRepr(n2, ns2, ib);
  if (target == repr_ && !WouldMove(ReprBitsEx(target, n2, n2 - ns2, ib))) {
    InsertSubInPlace(addr, child);
    return {this, self};
  }
  EntryDelta d;
  d.kind = EntryDelta::Kind::kInsertSub;
  d.addr = addr;
  d.payload = child;
  return TryRebuild(arena, target, d);
}

void Node::RemoveEntryInPlace(uint64_t addr) {
  const uint64_t ord = FindOrdinal(addr);
  assert(ord != kNoOrdinal);
  switch (repr_) {
    case Repr::kHc: {
      const bool was_sub = OrdinalIsSub(ord);
      if (was_sub) {
        if (store_values_) {
          WriteBits(words(), addr * 64, 64, 0);
        } else {
          RemoveBits(words(), CurrentReprBits(),
                     hc_subs_tail_base() + HcSubRank(addr) * 32, 32);
        }
        --num_subs_;
      } else {
        // Zero freed slots so the stream stays a pure function of content.
        const uint64_t rec = hc_records_base() + addr * stride();
        ClearBits(words(), rec, rec + stride());
        if (store_values_) {
          WriteBits(words(), addr * 64, 64, 0);
        }
      }
      SetBit(words(), hc_present_base() + addr, 0);
      SetBit(words(), hc_sub_base() + addr, 0);
      --num_entries_;
      break;
    }
    case Repr::kBhc:
      BhcRemoveEntry(addr);
      break;
    case Repr::kLhc:
    default:
      LhcRemoveEntry(ord);
      break;
  }
}

NodeRef Node::TryRemoveEntry(NodeArena& arena, NodeHandle self,
                             uint64_t addr) {
  const uint64_t ord = FindOrdinal(addr);
  assert(ord != kNoOrdinal);
  const bool was_sub = OrdinalIsSub(ord);
  const uint64_t n2 = num_entries_ - 1;
  const uint64_t ns2 = uint64_t{num_subs_} - (was_sub ? 1 : 0);
  const uint64_t ib = infix_bits();
  const Repr target = PickRepr(n2, ns2, ib);
  if (target == repr_ && !WouldMove(ReprBitsEx(target, n2, n2 - ns2, ib))) {
    RemoveEntryInPlace(addr);
    return {this, self};
  }
  EntryDelta d;
  d.kind = EntryDelta::Kind::kRemove;
  d.addr = addr;
  return TryRebuild(arena, target, d);
}

NodeRef Node::TryReplaceEntryWithSub(NodeArena& arena, NodeHandle self,
                                     uint64_t addr, NodeHandle child) {
  assert(FindOrdinal(addr) != kNoOrdinal &&
         !OrdinalIsSub(FindOrdinal(addr)));
  const uint64_t n = num_entries_;
  const uint64_t ns2 = uint64_t{num_subs_} + 1;
  const uint64_t ib = infix_bits();
  const Repr target = PickRepr(n, ns2, ib);
  // HC keeps this in place (a slot rewrite, plus a 32-bit tail insert in
  // key-only mode); LHC needs a remove+reinsert — two stream resizes whose
  // intermediate state cannot be guarded — so it always rebuilds, as does
  // any representation change (including BHC shedding its sub-free form).
  if (target == repr_ && repr_ == Repr::kHc &&
      !WouldMove(ReprBitsEx(target, n, n - ns2, ib))) {
    const uint64_t rec = hc_records_base() + addr * stride();
    ClearBits(words(), rec, rec + stride());
    if (store_values_) {
      WriteBits(words(), addr * 64, 64, child);
    } else {
      const uint64_t pos = hc_subs_tail_base() + HcSubRank(addr) * 32;
      InsertBits(words(), CurrentReprBits(), pos, 32);
      WriteBits(words(), pos, 32, child);
    }
    SetBit(words(), hc_sub_base() + addr, 1);
    ++num_subs_;
    return {this, self};
  }
  EntryDelta d;
  d.kind = EntryDelta::Kind::kToSub;
  d.addr = addr;
  d.payload = child;
  return TryRebuild(arena, target, d);
}

NodeRef Node::TryReplaceSubWithPostfix(NodeArena& arena, NodeHandle self,
                                       uint64_t addr,
                                       std::span<const uint64_t> key,
                                       uint64_t value) {
  assert(FindOrdinal(addr) != kNoOrdinal &&
         OrdinalIsSub(FindOrdinal(addr)));  // never BHC
  const uint64_t n = num_entries_;
  const uint64_t ns2 = uint64_t{num_subs_} - 1;
  const uint64_t ib = infix_bits();
  const Repr target = PickRepr(n, ns2, ib);
  if (target == repr_ && repr_ == Repr::kHc &&
      !WouldMove(ReprBitsEx(target, n, n - ns2, ib))) {
    if (store_values_) {
      WriteBits(words(), addr * 64, 64, value);
    } else {
      RemoveBits(words(), CurrentReprBits(),
                 hc_subs_tail_base() + HcSubRank(addr) * 32, 32);
    }
    SetBit(words(), hc_sub_base() + addr, 0);
    WritePostfixRecord(hc_records_base() + addr * stride(), key);
    --num_subs_;
    return {this, self};
  }
  EntryDelta d;
  d.kind = EntryDelta::Kind::kToPostfix;
  d.addr = addr;
  d.key = key.data();
  d.payload = value;
  return TryRebuild(arena, target, d);
}

void Node::SetSubAt(uint64_t ord, NodeHandle child) {
  assert(OrdinalIsSub(ord));  // implies repr != kBhc
  if (repr_ == Repr::kHc) {
    if (store_values_) {
      WriteBits(words(), ord * 64, 64, child);
    } else {
      WriteBits(words(), hc_subs_tail_base() + HcSubRank(ord) * 32, 32, child);
    }
    return;
  }
  const uint64_t srank = ord - LhcPostfixRank(ord);
  WriteBits(words(), lhc_subs_base() + srank * 32, 32, child);
}

void Node::SetPostfixAt(uint64_t ord, std::span<const uint64_t> key) {
  assert(!OrdinalIsSub(ord));
  if (postfix_len_ == 0) {
    return;
  }
  WritePostfixRecord(RecordPos(ord), key);
}

NodeRef Node::TryClone(NodeArena& arena) const {
  const uint64_t bits = CurrentReprBits();
  const NodeRef copy =
      arena.AllocateNode(dim_, infix_len_, postfix_len_, store_values_, bits,
                         FaultSite::kArenaNodeAlloc);
  if (copy) {
    copy.ptr->repr_ = repr_;
    copy.ptr->num_entries_ = num_entries_;
    copy.ptr->num_subs_ = num_subs_;
    std::memcpy(copy.ptr->words(), words(), WordsFor(bits) * sizeof(uint64_t));
  }
  return copy;
}

void Node::RelocatePostfix(uint64_t old_addr, uint64_t new_addr,
                           std::span<const uint64_t> key, uint64_t value) {
  assert(old_addr != new_addr);
  assert(FindOrdinal(old_addr) != kNoOrdinal &&
         !OrdinalIsSub(FindOrdinal(old_addr)));
  assert(FindOrdinal(new_addr) == kNoOrdinal);
  // Occupancy and the representation policy inputs are unchanged, so the
  // stream ends the size it started in the same block; the transient
  // one-entry-smaller stream between the remove and the reinsert fits that
  // block too.
  RemoveEntryInPlace(old_addr);
  InsertPostfixInPlace(new_addr, key, value);
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
      r.infix = store_values_ ? s * 64 : 0;
      r.present = r.infix + ib;
      r.sub_bitmap = r.present + s;
      r.records = r.sub_bitmap + s;
      r.sub_tail = r.records + s * st;
      r.end = r.sub_tail + (store_values_ ? 0 : n_subs * 32);
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

uint64_t Node::HcBitsEx(uint64_t n_entries, uint64_t n_postfixes,
                        uint64_t ib) const {
  return RegionsFor(Repr::kHc, n_entries, n_entries - n_postfixes, ib).end;
}

uint64_t Node::LhcBitsEx(uint64_t n_entries, uint64_t n_postfixes,
                         uint64_t ib) const {
  return RegionsFor(Repr::kLhc, n_entries, n_entries - n_postfixes, ib).end;
}

uint64_t Node::BhcBitsEx(uint64_t n_postfixes, uint64_t ib) const {
  return RegionsFor(Repr::kBhc, n_postfixes, 0, ib).end;
}

uint64_t Node::ReprBitsEx(Repr r, uint64_t n_entries, uint64_t n_postfixes,
                          uint64_t ib) const {
  return RegionsFor(r, n_entries, n_entries - n_postfixes, ib).end;
}

uint64_t Node::HcBitsFor(uint64_t n_postfixes) const {
  return HcBitsEx(num_entries_, n_postfixes, infix_bits());
}

uint64_t Node::LhcBitsFor(uint64_t n_entries, uint64_t n_postfixes) const {
  return LhcBitsEx(n_entries, n_postfixes, infix_bits());
}

uint64_t Node::BhcBitsFor(uint64_t n_postfixes) const {
  return BhcBitsEx(n_postfixes, infix_bits());
}

Node::Repr Node::PickRepr(uint64_t n_entries, uint64_t n_subs,
                          uint64_t ib) const {
  const uint64_t np = n_entries - n_subs;
  const bool hc_allowed = dim_ <= kMaxHcDim;
  Repr best = Repr::kLhc;
  uint64_t best_bits = LhcBitsEx(n_entries, np, ib);
  if (hc_allowed && n_subs == 0) {
    const uint64_t b = BhcBitsEx(np, ib);
    if (b < best_bits) {
      best = Repr::kBhc;
      best_bits = b;
    }
  }
  if (hc_allowed && HcBitsEx(n_entries, np, ib) < best_bits) {
    best = Repr::kHc;
  }
  return best;
}

uint64_t Node::CurrentReprBits() const {
  switch (repr_) {
    case Repr::kHc:
      return HcBits();
    case Repr::kBhc:
      return BhcBits();
    case Repr::kLhc:
    default:
      return LhcBits();
  }
}

/// Emits a node's entries into the regions of a fresh block, keeping the
/// running entry, postfix and sub ranks every layout indexes by.
class Node::StreamWriter {
 public:
  StreamWriter(const Node& shape, Repr target, uint64_t n_entries,
               uint64_t n_subs, uint64_t ib)
      : r_(shape.RegionsFor(target, n_entries, n_subs, ib)),
        target_(target),
        dim_(shape.dim_),
        stride_(shape.stride()),
        store_values_(shape.store_values_) {}

  const Regions& regions() const { return r_; }

  /// Writes the next entry's flags, address and value or handle into
  /// `out`, and returns the bit position of its postfix record, which the
  /// caller fills (meaningless for a sub entry).
  uint64_t Emit(uint64_t* out, uint64_t addr, bool sub, uint64_t payload) {
    uint64_t record = 0;
    switch (target_) {
      case Repr::kLhc:
        SetBit(out, r_.flags + idx_, sub ? 1 : 0);
        WriteBits(out, r_.addrs + idx_ * dim_, dim_, addr);
        if (sub) {
          WriteBits(out, r_.subs + srank_ * 32, 32, payload);
        } else {
          if (store_values_) {
            WriteBits(out, prank_ * 64, 64, payload);
          }
          record = r_.records + prank_ * stride_;
        }
        break;
      case Repr::kHc:
        SetBit(out, r_.present + addr, 1);
        if (sub) {
          SetBit(out, r_.sub_bitmap + addr, 1);
          if (store_values_) {
            WriteBits(out, addr * 64, 64, payload);
          } else {
            WriteBits(out, r_.sub_tail + srank_ * 32, 32, payload);
          }
        } else {
          if (store_values_) {
            WriteBits(out, addr * 64, 64, payload);
          }
          record = r_.records + addr * stride_;
        }
        break;
      case Repr::kBhc:
        SetBit(out, r_.present + addr, 1);
        if (store_values_) {
          WriteBits(out, prank_ * 64, 64, payload);
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
  Regions r_;
  Repr target_;
  uint32_t dim_;
  uint64_t stride_;
  bool store_values_;
  uint64_t idx_ = 0;
  uint64_t prank_ = 0;
  uint64_t srank_ = 0;
};

NodeRef Node::TryRebuild(NodeArena& arena, Repr target,
                         const EntryDelta& delta) const {
  using K = EntryDelta::Kind;
  // Post-state occupancy.
  uint64_t n2 = num_entries_;
  uint64_t ns2 = num_subs_;
  switch (delta.kind) {
    case K::kNone:
      break;
    case K::kInsertPostfix:
      ++n2;
      break;
    case K::kInsertSub:
      ++n2;
      ++ns2;
      break;
    case K::kRemove: {
      const uint64_t ord = FindOrdinal(delta.addr);
      assert(ord != kNoOrdinal);
      --n2;
      if (OrdinalIsSub(ord)) {
        --ns2;
      }
      break;
    }
    case K::kToSub:
      ++ns2;
      break;
    case K::kToPostfix:
      --ns2;
      break;
  }
  assert(target != Repr::kBhc || ns2 == 0);
  const uint32_t il2 = delta.new_infix ? delta.new_infix_len : infix_len_;
  const uint64_t ib2 = static_cast<uint64_t>(dim_) * il2;
  StreamWriter w(*this, target, n2, ns2, ib2);
  // The single fallible step: one zeroed block for the whole replacement
  // node. Nothing below can fail, and this node is never touched.
  const NodeRef moved =
      arena.AllocateNode(dim_, il2, postfix_len_, store_values_,
                         w.regions().end, FaultSite::kWordAlloc);
  if (!moved) {
    return {};
  }
  Node* node = moved.ptr;
  uint64_t* out = node->words();
  const uint64_t n_inf = w.regions().infix;
  if (delta.new_infix) {
    for (uint32_t d = 0; d < dim_; ++d) {
      WriteBits(out, n_inf + static_cast<uint64_t>(d) * il2, il2,
                delta.infix_segments[d]);
    }
  } else {
    CopyBits(words(), infix_base(), out, n_inf, ib2);
  }
  // Emits one post-state entry; `src_ord` names the old-node ordinal to
  // copy the postfix record from, kNoOrdinal when `key_src` supplies it.
  const auto emit = [&](uint64_t addr, bool sub, uint64_t payload,
                        const uint64_t* key_src, uint64_t src_ord) {
    const uint64_t record = w.Emit(out, addr, sub, payload);
    if (sub) {
      return;
    }
    if (key_src != nullptr) {
      node->WritePostfixRecord(record, {key_src, dim_});
    } else {
      CopyBits(words(), RecordPos(src_ord), out, record, stride());
    }
  };
  bool pending_insert =
      delta.kind == K::kInsertPostfix || delta.kind == K::kInsertSub;
  for (uint64_t ord = FirstOrdinal(); ord != kNoOrdinal;
       ord = NextOrdinal(ord)) {
    const uint64_t addr = OrdinalAddr(ord);
    if (pending_insert && delta.addr < addr) {
      emit(delta.addr, delta.kind == K::kInsertSub, delta.payload, delta.key,
           kNoOrdinal);
      pending_insert = false;
    }
    if (addr == delta.addr) {
      if (delta.kind == K::kRemove) {
        continue;
      }
      if (delta.kind == K::kToSub) {
        emit(addr, /*sub=*/true, delta.payload, nullptr, kNoOrdinal);
        continue;
      }
      if (delta.kind == K::kToPostfix) {
        emit(addr, /*sub=*/false, delta.payload, delta.key, kNoOrdinal);
        continue;
      }
    }
    const bool sub = OrdinalIsSub(ord);
    emit(addr, sub, sub ? OrdinalSub(ord) : OrdinalPayload(ord), nullptr,
         ord);
  }
  if (pending_insert) {
    emit(delta.addr, delta.kind == K::kInsertSub, delta.payload, delta.key,
         kNoOrdinal);
  }
  node->repr_ = target;
  node->num_entries_ = static_cast<uint32_t>(n2);
  node->num_subs_ = static_cast<uint32_t>(ns2);
  return moved;
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
  const uint64_t n = entries.size();
  const uint64_t ib = shape.infix_bits();
  const Repr target = shape.PickRepr(n, n_subs, ib);
  StreamWriter w(shape, target, n, n_subs, ib);
  const NodeRef built =
      arena.AllocateNode(dim, infix_len, postfix_len, store_values,
                         w.regions().end, FaultSite::kArenaNodeAlloc);
  if (!built) {
    return {};
  }
  Node* node = built.ptr;
  node->repr_ = target;
  node->num_entries_ = static_cast<uint32_t>(n);
  node->num_subs_ = static_cast<uint32_t>(n_subs);
  node->SetInfixFromKey(infix_key);
  for (size_t i = 0; i < n; ++i) {
    const NodeEntry& e = entries[i];
    const uint64_t record = w.Emit(node->words(), e.addr, e.is_sub, e.payload);
    if (!e.is_sub) {
      node->WritePostfixRecord(record, {keys + i * dim, dim});
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

bool Node::WouldMove(uint64_t bits) const {
  return SlabWordPool::GrantWords(kHeaderWords + WordsFor(bits)) !=
         BlockWords();
}

}  // namespace phtree
