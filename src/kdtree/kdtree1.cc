#include "kdtree/kdtree1.h"

#include <algorithm>
#include <cassert>

namespace phtree {

namespace {
constexpr uint64_t kAllocOverhead = 16;
}  // namespace

struct KdTree1::KdNode {
  std::vector<double> point;
  uint64_t value;
  KdNode* left = nullptr;
  KdNode* right = nullptr;

  KdNode(std::span<const double> p, uint64_t v)
      : point(p.begin(), p.end()), value(v) {}
};

KdTree1::KdTree1(uint32_t dim) : dim_(dim) { assert(dim >= 1); }

KdTree1::~KdTree1() { DeleteRec(root_); }

void KdTree1::DeleteRec(KdNode* node) {
  // Iterative: degenerate kd-trees can be arbitrarily deep.
  std::vector<KdNode*> stack;
  if (node != nullptr) {
    stack.push_back(node);
  }
  while (!stack.empty()) {
    KdNode* cur = stack.back();
    stack.pop_back();
    if (cur->left != nullptr) {
      stack.push_back(cur->left);
    }
    if (cur->right != nullptr) {
      stack.push_back(cur->right);
    }
    delete cur;
  }
}

bool KdTree1::Insert(std::span<const double> key, uint64_t value) {
  assert(key.size() == dim_);
  if (root_ == nullptr) {
    root_ = new KdNode(key, value);
    size_ = 1;
    return true;
  }
  KdNode* node = root_;
  uint32_t depth = 0;
  for (;;) {
    if (std::equal(key.begin(), key.end(), node->point.begin())) {
      return false;  // duplicate
    }
    const uint32_t cd = depth % dim_;
    KdNode*& child =
        key[cd] < node->point[cd] ? node->left : node->right;
    if (child == nullptr) {
      child = new KdNode(key, value);
      ++size_;
      return true;
    }
    node = child;
    ++depth;
  }
}

std::optional<uint64_t> KdTree1::Find(std::span<const double> key) const {
  assert(key.size() == dim_);
  const KdNode* node = root_;
  uint32_t depth = 0;
  while (node != nullptr) {
    if (std::equal(key.begin(), key.end(), node->point.begin())) {
      return node->value;
    }
    const uint32_t cd = depth % dim_;
    node = key[cd] < node->point[cd] ? node->left : node->right;
    ++depth;
  }
  return std::nullopt;
}

const KdTree1::KdNode* KdTree1::FindMin(const KdNode* node, uint32_t depth,
                                        uint32_t target_d,
                                        const KdNode* best) const {
  if (node == nullptr) {
    return best;
  }
  if (best == nullptr || node->point[target_d] < best->point[target_d]) {
    best = node;
  }
  const uint32_t cd = depth % dim_;
  best = FindMin(node->left, depth + 1, target_d, best);
  if (cd != target_d) {
    // Only when the split dimension differs can the right subtree hold a
    // smaller target_d coordinate.
    best = FindMin(node->right, depth + 1, target_d, best);
  }
  return best;
}

bool KdTree1::Erase(std::span<const double> key) {
  assert(key.size() == dim_);
  bool erased = false;
  root_ = RemoveRec(root_, 0, key, &erased);
  if (erased) {
    --size_;
  }
  return erased;
}

KdTree1::KdNode* KdTree1::RemoveRec(KdNode* node, uint32_t depth,
                                   std::span<const double> key,
                                   bool* erased) {
  if (node == nullptr) {
    return nullptr;
  }
  const uint32_t cd = depth % dim_;
  if (std::equal(key.begin(), key.end(), node->point.begin())) {
    *erased = true;
    if (node->right != nullptr) {
      const KdNode* min = FindMin(node->right, depth + 1, cd, nullptr);
      node->point = min->point;
      node->value = min->value;
      bool dummy = false;
      node->right = RemoveRec(node->right, depth + 1, node->point, &dummy);
    } else if (node->left != nullptr) {
      // Move the left subtree to the right after replacing with its minimum
      // (keeps the "< goes left" invariant).
      const KdNode* min = FindMin(node->left, depth + 1, cd, nullptr);
      node->point = min->point;
      node->value = min->value;
      bool dummy = false;
      node->right = RemoveRec(node->left, depth + 1, node->point, &dummy);
      node->left = nullptr;
    } else {
      delete node;
      return nullptr;
    }
    return node;
  }
  if (key[cd] < node->point[cd]) {
    node->left = RemoveRec(node->left, depth + 1, key, erased);
  } else {
    node->right = RemoveRec(node->right, depth + 1, key, erased);
  }
  return node;
}

void KdTree1::QueryWindow(
    std::span<const double> min, std::span<const double> max,
    const std::function<void(std::span<const double>, uint64_t)>& fn) const {
  assert(min.size() == dim_ && max.size() == dim_);
  // Iterative DFS with split-plane pruning.
  std::vector<std::pair<const KdNode*, uint32_t>> stack;
  if (root_ != nullptr) {
    stack.emplace_back(root_, 0);
  }
  while (!stack.empty()) {
    const auto [node, depth] = stack.back();
    stack.pop_back();
    bool inside = true;
    for (uint32_t d = 0; d < dim_; ++d) {
      inside = inside && node->point[d] >= min[d] && node->point[d] <= max[d];
    }
    if (inside) {
      fn(node->point, node->value);
    }
    const uint32_t cd = depth % dim_;
    if (node->left != nullptr && min[cd] < node->point[cd]) {
      stack.emplace_back(node->left, depth + 1);
    }
    if (node->right != nullptr && max[cd] >= node->point[cd]) {
      stack.emplace_back(node->right, depth + 1);
    }
  }
}

size_t KdTree1::CountWindow(std::span<const double> min,
                            std::span<const double> max) const {
  size_t n = 0;
  QueryWindow(min, max, [&n](std::span<const double>, uint64_t) { ++n; });
  return n;
}

uint64_t KdTree1::MemoryBytes() const {
  // Every node: the node object + its point vector, each one heap block.
  return size_ * (sizeof(KdNode) + kAllocOverhead + dim_ * sizeof(double) +
                  kAllocOverhead);
}

size_t KdTree1::MaxDepth() const {
  size_t max_depth = 0;
  std::vector<std::pair<const KdNode*, size_t>> stack;
  if (root_ != nullptr) {
    stack.emplace_back(root_, 1);
  }
  while (!stack.empty()) {
    const auto [node, depth] = stack.back();
    stack.pop_back();
    max_depth = std::max(max_depth, depth);
    if (node->left != nullptr) {
      stack.emplace_back(node->left, depth + 1);
    }
    if (node->right != nullptr) {
      stack.emplace_back(node->right, depth + 1);
    }
  }
  return max_depth;
}

}  // namespace phtree
