#include "phtree/builder.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <new>

#include "common/bits.h"
#include "common/simd.h"
#include "phtree/arena.h"
#include "phtree/cursor.h"

namespace phtree {

// The stream is consumed one key at a time. With prev_ the last key and K
// the new one, let hb be the highest bit they differ in. Every open node
// below bit hb holds no later key, so it closes: its last entry is the
// group holding prev_ (prev_ itself, or the node closed just before), and
// its parent sits at the next open level or, when that lies above hb, at
// hb itself. A closed node's infix therefore reaches up to
// min(next open level, hb) and is known when it is written. Then K joins
// the open node at bit hb, or, when the top open node lies above hb, K and
// prev_ share its slot and a new node opens at hb with prev_'s group as
// its first entry. Addresses at hb order the two keys, which is the
// z-order check.

ZOrderBuilder::ZOrderBuilder(PhTree* tree)
    : tree_(tree),
      dim_(tree->dim()),
      store_values_(tree->config().store_values),
      prev_(tree->dim(), 0) {
  assert(tree->empty() && !tree->root_);
  if (tree->arena_ == nullptr) {
    // Moved-from tree being refilled: give it a fresh arena.
    tree->arena_ = std::make_unique<NodeArena>();
  }
}

ZOrderBuilder::~ZOrderBuilder() {
  if (finished_) {
    return;
  }
  // Every built node hangs below a sub entry of an open node.
  for (const NodeEntry& e : entries_) {
    if (e.is_sub) {
      FreeSubtree(static_cast<NodeHandle>(e.payload));
    }
  }
}

void ZOrderBuilder::FreeSubtree(NodeHandle handle) {
  NodeArena& arena = *tree_->arena_;
  const NodeRef node{arena.NodeAt(handle), handle};
  for (uint64_t ord = node.ptr->FirstOrdinal(); ord != Node::kNoOrdinal;
       ord = node.ptr->NextOrdinal(ord)) {
    if (node.ptr->OrdinalIsSub(ord)) {
      FreeSubtree(node.ptr->OrdinalSub(ord));
    }
  }
  // Never published, so freed at once under either mutation policy.
  arena.DeleteNode(node);
}

void ZOrderBuilder::Push(const NodeEntry& group, uint32_t postfix_len) {
  entries_.push_back(
      NodeEntry{HcAddressAt(prev_, postfix_len), group.payload, group.is_sub});
  keys_.insert(keys_.end(), prev_.begin(), prev_.end());
}

NodeEntry ZOrderBuilder::CloseTop(const NodeEntry& group,
                                  uint32_t parent_len) {
  const OpenNode top = open_.back();
  Push(group, top.postfix_len);
  const NodeRef node = Node::TryBuild(
      *tree_->arena_, dim_, parent_len - 1 - top.postfix_len, top.postfix_len,
      store_values_, prev_, std::span(entries_).subspan(top.first),
      keys_.data() + top.first * dim_);
  if (!node) {
    throw std::bad_alloc();
  }
  // Shrinking keeps the capacity, so the caller's Push of the returned
  // entry cannot allocate: no built node is ever held only here.
  entries_.resize(top.first);
  keys_.resize(top.first * dim_);
  open_.pop_back();
  return NodeEntry{0, node.handle, /*is_sub=*/true};
}

ZOrderBuilder::AddResult ZOrderBuilder::Add(std::span<const uint64_t> key,
                                            uint64_t value) {
  assert(key.size() == dim_ && !finished_);
  if (count_ == 0) {
    open_.push_back(OpenNode{kBitWidth - 1, 0});  // the root
  } else {
    const int diff = FirstDifferingBit(key, prev_);
    if (diff < 0) {
      return AddResult::kDuplicate;
    }
    const uint32_t hb = static_cast<uint32_t>(diff);
    if (HcAddressAt(key, hb) < HcAddressAt(prev_, hb)) {
      return AddResult::kOutOfOrder;
    }
    NodeEntry group{0, prev_value_, /*is_sub=*/false};
    // The root sits at the top bit, so it never closes here.
    while (open_.back().postfix_len < hb) {
      group = CloseTop(group,
                       std::min(open_[open_.size() - 2].postfix_len, hb));
    }
    if (open_.back().postfix_len > hb) {
      open_.push_back(OpenNode{hb, entries_.size()});
    }
    Push(group, hb);
  }
  std::copy(key.begin(), key.end(), prev_.begin());
  prev_value_ = value;
  ++count_;
  return AddResult::kAdded;
}

void ZOrderBuilder::Finish() {
  assert(!finished_);
  if (count_ > 0) {
    NodeEntry group{0, prev_value_, /*is_sub=*/false};
    while (!open_.empty()) {
      // The root's parent level is one past the top bit: infix length 0.
      const uint32_t parent_len =
          open_.size() > 1 ? open_[open_.size() - 2].postfix_len : kBitWidth;
      group = CloseTop(group, parent_len);
    }
    const NodeHandle root = static_cast<NodeHandle>(group.payload);
    tree_->size_.store(count_, std::memory_order_relaxed);
    tree_->SetRoot(NodeRef{tree_->arena_->NodeAt(root), root});
  }
  finished_ = true;
}

namespace {

/// A row's z-sample (ZOrderPermutation).
struct SampledRow {
  uint64_t sample;
  size_t row;
};

/// Sorts `n` rows by sample, stably, on sample bytes `byte` down to 0:
/// an MSD radix sort that scatters through `scratch` (n rows) and hands
/// small buckets to insertion sort. A byte every row shares costs one
/// counting pass and no move.
void SortBySample(SampledRow* rows, SampledRow* scratch, size_t n, int byte) {
  constexpr size_t kSmall = 32;
  if (n <= kSmall) {
    for (size_t i = 1; i < n; ++i) {
      const SampledRow r = rows[i];
      size_t j = i;
      for (; j > 0 && rows[j - 1].sample > r.sample; --j) {
        rows[j] = rows[j - 1];
      }
      rows[j] = r;
    }
    return;
  }
  for (; byte >= 0; --byte) {
    const int shift = 8 * byte;
    size_t end[256] = {};
    for (size_t i = 0; i < n; ++i) {
      ++end[(rows[i].sample >> shift) & 0xFF];
    }
    if (end[(rows[0].sample >> shift) & 0xFF] == n) {
      continue;  // one bucket: nothing to move at this byte
    }
    size_t offset = 0;
    for (size_t& e : end) {
      offset += e;
      e = offset;
    }
    for (size_t i = n; i-- > 0;) {  // back to front keeps the scatter stable
      scratch[--end[(rows[i].sample >> shift) & 0xFF]] = rows[i];
    }
    std::copy(scratch, scratch + n, rows);
    // end[b] now holds bucket b's first row.
    for (int b = 0; b < 256; ++b) {
      const size_t first = end[b];
      const size_t last = b < 255 ? end[b + 1] : n;
      if (last - first > 1) {
        SortBySample(rows + first, scratch + first, last - first, byte - 1);
      }
    }
    return;
  }
}

}  // namespace

std::vector<size_t> ZOrderPermutation(std::span<const uint64_t> keys,
                                      uint32_t dim) {
  const size_t n = keys.size() / dim;
  std::vector<size_t> order(n);
  if (n == 0) {
    return order;
  }
  const auto row = [&](size_t i) { return keys.subspan(i * dim, dim); };
  // Every row agrees with row 0 above the highest bit any row differs in,
  // so the samples start at that bit and spend no levels on shared ones.
  uint64_t agg = 0;
  for (size_t i = 1; i < n; ++i) {
    for (uint32_t d = 0; d < dim; ++d) {
      agg |= keys[i * dim + d] ^ keys[d];
    }
  }
  const uint32_t varying = static_cast<uint32_t>(std::bit_width(agg));
  const uint32_t shift = varying == 0 ? 0 : 64 - varying;
  // A sample interleaves 64/dim levels; if that covers every varying
  // level, equal samples mean equal rows.
  const bool exact = varying <= 64 / dim;
  std::vector<SampledRow> items(n);
  uint64_t shifted[kMaxDims];
  for (size_t i = 0; i < n; ++i) {
    for (uint32_t d = 0; d < dim; ++d) {
      shifted[d] = keys[i * dim + d] << shift;
    }
    items[i] = SampledRow{simd::ZSamplePrefix(shifted, dim), i};
  }
  std::vector<SampledRow> scratch(n);
  SortBySample(items.data(), scratch.data(), n, 7);
  for (size_t i = 0; i < n;) {
    size_t j = i + 1;
    while (j < n && items[j].sample == items[i].sample) {
      ++j;
    }
    if (!exact && j - i > 1) {
      // Rows sharing a sample agree on its levels; the rest of their bits
      // decide, and row order breaks exact ties.
      std::stable_sort(items.begin() + static_cast<ptrdiff_t>(i),
                       items.begin() + static_cast<ptrdiff_t>(j),
                       [&](const SampledRow& a, const SampledRow& b) {
                         return ZOrderCompare(row(a.row), row(b.row)) < 0;
                       });
    }
    i = j;
  }
  for (size_t i = 0; i < n; ++i) {
    order[i] = items[i].row;
  }
  return order;
}

size_t BuildFromRows(PhTree* tree, std::span<const uint64_t> keys,
                     std::span<const uint64_t> values,
                     std::span<const size_t> order) {
  const uint32_t dim = tree->dim();
  ZOrderBuilder builder(tree);
  // The rows are fetched a chunk at a time: a gather loop keeps many of
  // its scattered reads in flight, where the builder would wait on each.
  constexpr size_t kChunk = 1024;
  std::vector<uint64_t> chunk_keys(kChunk * dim);
  uint64_t chunk_values[kChunk];
  for (size_t first = 0; first < order.size(); first += kChunk) {
    const size_t count = std::min(kChunk, order.size() - first);
    for (size_t i = 0; i < count; ++i) {
      const size_t row = order[first + i];
      std::copy_n(keys.begin() + static_cast<ptrdiff_t>(row * dim), dim,
                  chunk_keys.begin() + static_cast<ptrdiff_t>(i * dim));
      chunk_values[i] = values[row];
    }
    for (size_t i = 0; i < count; ++i) {
      // A later copy of a key is kDuplicate and dropped: the first wins.
      builder.Add(std::span(chunk_keys).subspan(i * dim, dim),
                  chunk_values[i]);
    }
  }
  builder.Finish();
  return builder.size();
}

}  // namespace phtree
