#include "phtree/cursor.h"

#include <algorithm>

#include "phtree/arena.h"

namespace phtree {

TreeCursor::TreeCursor(const PhTree& tree)
    : tree_(&tree), dim_(tree.dim()), bounded_(false) {
  const Node* root = tree.root();
  if (root == nullptr) {
    return;
  }
  for (uint32_t d = 0; d < dim_; ++d) {
    key_[d] = 0;
  }
  root->ReadInfixInto(key_span());  // root infix is empty; kept for uniformity
  PushNode(root);
  Advance();
}

TreeCursor::TreeCursor(const PhTree& tree, std::span<const uint64_t> min,
                       std::span<const uint64_t> max) {
  InitWindow(tree, min, max, nullptr);
}

TreeCursor::TreeCursor(const PhTree& tree, std::span<const uint64_t> min,
                       std::span<const uint64_t> max,
                       std::span<const uint64_t> resume_after) {
  assert(resume_after.size() == tree.dim());
  InitWindow(tree, min, max, resume_after.data());
}

TreeCursor TreeCursor::Prefix(const PhTree& tree,
                              std::span<const uint64_t> prefix,
                              uint32_t prefix_bits) {
  assert(prefix.size() == tree.dim() && prefix_bits <= kBitWidth);
  uint64_t min[kMaxDims];
  uint64_t max[kMaxDims];
  for (uint32_t d = 0; d < tree.dim(); ++d) {
    RegionBounds(prefix[d], kBitWidth - prefix_bits, &min[d], &max[d]);
  }
  return TreeCursor(tree, {min, tree.dim()}, {max, tree.dim()});
}

void TreeCursor::InitWindow(const PhTree& tree, std::span<const uint64_t> min,
                            std::span<const uint64_t> max,
                            const uint64_t* resume) {
  assert(min.size() == tree.dim() && max.size() == tree.dim());
  tree_ = &tree;
  dim_ = tree.dim();
  bounded_ = true;
  for (uint32_t d = 0; d < dim_; ++d) {
    min_[d] = min[d];
    max_[d] = max[d];
    key_[d] = 0;
    if (min[d] > max[d]) {
      return;  // empty window
    }
  }
  const Node* root = tree.root();
  if (root == nullptr) {
    return;
  }
  root->ReadInfixInto(key_span());
  if (resume != nullptr) {
    SeekPast(root, resume);
    return;
  }
  if (PushNode(root)) {
    Advance();
  }
}

bool TreeCursor::PushNode(const Node* node, uint64_t start) {
  assert(depth_ < kBitWidth);
  uint64_t lower = 0;
  uint64_t upper = LowMask(dim_);
  if (bounded_) {
    const WindowMasks m = ComputeWindowMasks(key_span(), {min_, dim_},
                                             {max_, dim_},
                                             node->postfix_len());
    if (!m.Possible()) {
      return false;
    }
    lower = m.lower;
    upper = m.upper;
  }
  stack_[depth_].Bind(node, lower, upper, start);
  ++depth_;
  return true;
}

void TreeCursor::SeekPast(const Node* root, const uint64_t* token) {
  // Walk down the token's own address path with key_ holding a copy of the
  // token. At each level the node cursor is parked at the token's address
  // (or the first masked-in address after it); when the paths separate,
  // one z-comparison against the token decides whether the entry at the
  // separation point is consumed or left for Advance() below. Every frame
  // then holds only not-yet-consumed entries >= the token's path, so the
  // normal Advance() resumes mid-tree exactly after the token.
  const Node* node = root;
  for (uint32_t d = 0; d < dim_; ++d) {
    key_[d] = token[d];
  }
  const std::span<const uint64_t> tok{token, dim_};
  for (;;) {
    const uint64_t token_addr = HcAddressAt(key_span(), node->postfix_len());
    if (!PushNode(node, token_addr)) {
      break;
    }
    NodeCursor& cursor = stack_[depth_ - 1];
    if (!cursor.valid() || cursor.addr() > token_addr) {
      break;  // everything left in this node is strictly after the token
    }
    if (cursor.is_sub()) {
      const Node* child = tree_->arena()->NodeAt(cursor.sub());
      assert(tree_->arena()->Owns(child));
      // key_ equals the token above this region, so after loading the
      // child's infix the comparison is decided by the infix bits alone.
      child->ReadInfixInto(key_span());
      const int cmp = ZOrderCompare(key_span(), tok);
      if (cmp == 0) {
        cursor.Next();  // the parent owes nothing at or before this address
        node = child;
        continue;
      }
      if (cmp < 0) {
        cursor.Next();  // whole subtree strictly before the token: skip it
      }
      break;  // cmp > 0: the subtree starts after the token — Advance takes it
    }
    cursor.ReadPostfix(key_span());
    if (ZOrderCompare(key_span(), tok) <= 0) {
      cursor.Next();  // the token itself (or an entry before it): consumed
    }
    break;
  }
  Advance();
}

void TreeCursor::Advance() {
  valid_ = false;
  while (depth_ > 0) {
    NodeCursor& cursor = stack_[depth_ - 1];
    if (!cursor.valid()) {
      --depth_;
      continue;
    }
    ApplyHcAddress(cursor.addr(), cursor.node()->postfix_len(), key_span());
    if (cursor.is_sub()) {
      const Node* child = tree_->arena()->NodeAt(cursor.sub());
      cursor.Next();
      // Handle provenance: every node the cursor descends into must live
      // in the tree's arena (catches stale handles in debug builds).
      assert(tree_->arena()->Owns(child));
      child->ReadInfixInto(key_span());
      PushNode(child);  // pushes nothing if the child misses the window
      continue;
    }
    value_ = cursor.ReadPostfix(key_span());
    cursor.Next();
    if (!bounded_ || KeyInWindow()) {
      valid_ = true;
      return;
    }
  }
}

bool TreeCursor::KeyInWindow() const {
  // At higher dimensionality the vector kernel tests four dimensions per
  // lane set; below that the inline loop's early exit wins.
  if (dim_ >= 4) {
    return simd::KeyInBox(key_, min_, max_, dim_);
  }
  for (uint32_t d = 0; d < dim_; ++d) {
    if (key_[d] < min_[d] || key_[d] > max_[d]) {
      return false;
    }
  }
  return true;
}

std::vector<std::pair<PhKey, uint64_t>> PhTree::QueryWindow(
    std::span<const uint64_t> min, std::span<const uint64_t> max) const {
  std::vector<std::pair<PhKey, uint64_t>> out;
  for (TreeCursor cursor(*this, min, max); cursor.Valid(); cursor.Next()) {
    const std::span<const uint64_t> key = cursor.key();
    out.emplace_back(PhKey(key.begin(), key.end()), cursor.value());
  }
  return out;
}

void PhTree::QueryWindow(
    std::span<const uint64_t> min, std::span<const uint64_t> max,
    const std::function<void(const PhKey&, uint64_t)>& visitor) const {
  PhKey key(dim_, 0);
  for (TreeCursor cursor(*this, min, max); cursor.Valid(); cursor.Next()) {
    const std::span<const uint64_t> k = cursor.key();
    std::copy(k.begin(), k.end(), key.begin());
    visitor(key, cursor.value());
  }
}

size_t PhTree::CountWindow(std::span<const uint64_t> min,
                           std::span<const uint64_t> max) const {
  size_t n = 0;
  for (TreeCursor cursor(*this, min, max); cursor.Valid(); cursor.Next()) {
    ++n;
  }
  return n;
}

WindowPage PhTree::QueryWindowPage(std::span<const uint64_t> min,
                                   std::span<const uint64_t> max,
                                   size_t page_size,
                                   std::span<const uint64_t> resume_after) const {
  WindowPage page;
  TreeCursor cursor = resume_after.empty()
                          ? TreeCursor(*this, min, max)
                          : TreeCursor(*this, min, max, resume_after);
  while (cursor.Valid() && page.entries.size() < page_size) {
    const std::span<const uint64_t> key = cursor.key();
    page.entries.emplace_back(PhKey(key.begin(), key.end()), cursor.value());
    cursor.Next();
  }
  page.more = cursor.Valid();
  if (page.more) {
    page.token = page.entries.empty()
                     ? PhKey(resume_after.begin(), resume_after.end())
                     : page.entries.back().first;
  }
  return page;
}

}  // namespace phtree
