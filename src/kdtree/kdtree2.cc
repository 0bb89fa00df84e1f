#include "kdtree/kdtree2.h"

#include <algorithm>
#include <cassert>

namespace phtree {

KdTree2::KdTree2(uint32_t dim) : dim_(dim) { assert(dim >= 1); }

bool KdTree2::PointEquals(uint32_t idx, std::span<const double> key) const {
  const double* p = points_.data() + static_cast<size_t>(idx) * dim_;
  for (uint32_t d = 0; d < dim_; ++d) {
    if (p[d] != key[d]) {
      return false;
    }
  }
  return true;
}

uint32_t KdTree2::AllocNode(std::span<const double> key, uint64_t value) {
  uint32_t idx;
  if (!free_list_.empty()) {
    idx = free_list_.back();
    free_list_.pop_back();
    nodes_[idx] = Node{};
  } else {
    idx = static_cast<uint32_t>(nodes_.size());
    nodes_.emplace_back();
    points_.resize(points_.size() + dim_);
  }
  nodes_[idx].value = value;
  nodes_[idx].live = 1;
  double* p = points_.data() + static_cast<size_t>(idx) * dim_;
  for (uint32_t d = 0; d < dim_; ++d) {
    p[d] = key[d];
  }
  return idx;
}

bool KdTree2::Insert(std::span<const double> key, uint64_t value) {
  assert(key.size() == dim_);
  if (root_ == kNil) {
    root_ = AllocNode(key, value);
    size_ = 1;
    return true;
  }
  // Descend, remembering the path for size updates and scapegoat detection.
  std::vector<uint32_t> path;
  uint32_t idx = root_;
  uint32_t depth = 0;
  for (;;) {
    path.push_back(idx);
    if (PointEquals(idx, key)) {
      Node& node = nodes_[idx];
      if (!node.deleted) {
        return false;  // live duplicate
      }
      // Revive a tombstone.
      node.deleted = false;
      node.value = value;
      --tombstones_;
      ++size_;
      for (uint32_t i : path) {
        ++nodes_[i].live;
      }
      return true;
    }
    const uint32_t cd = depth % dim_;
    const bool go_left = key[cd] < Point(idx)[cd];
    const uint32_t child = go_left ? nodes_[idx].left : nodes_[idx].right;
    if (child == kNil) {
      // AllocNode may reallocate nodes_: link via indices, not references.
      const uint32_t new_idx = AllocNode(key, value);
      (go_left ? nodes_[idx].left : nodes_[idx].right) = new_idx;
      ++size_;
      for (uint32_t i : path) {
        ++nodes_[i].live;
      }
      break;
    }
    idx = child;
    ++depth;
  }
  // Scapegoat check: rebuild the highest alpha-unbalanced subtree on the
  // insertion path.
  for (size_t i = 0; i + 1 < path.size(); ++i) {
    const Node& node = nodes_[path[i]];
    const uint32_t child_live =
        std::max(node.left == kNil ? 0 : nodes_[node.left].live,
                 node.right == kNil ? 0 : nodes_[node.right].live);
    if (node.live > 4 &&
        static_cast<double>(child_live) >
            kAlpha * static_cast<double>(node.live)) {
      uint32_t* link;
      if (i == 0) {
        link = &root_;
      } else {
        Node& parent = nodes_[path[i - 1]];
        link = parent.left == path[i] ? &parent.left : &parent.right;
      }
      RebuildSubtree(link, static_cast<uint32_t>(i));
      break;
    }
  }
  return true;
}

std::optional<uint64_t> KdTree2::Find(std::span<const double> key) const {
  assert(key.size() == dim_);
  uint32_t idx = root_;
  uint32_t depth = 0;
  while (idx != kNil) {
    const Node& node = nodes_[idx];
    if (PointEquals(idx, key)) {
      if (node.deleted) {
        return std::nullopt;
      }
      return node.value;
    }
    const uint32_t cd = depth % dim_;
    idx = key[cd] < Point(idx)[cd] ? node.left : node.right;
    ++depth;
  }
  return std::nullopt;
}

bool KdTree2::Erase(std::span<const double> key) {
  assert(key.size() == dim_);
  std::vector<uint32_t> path;
  uint32_t idx = root_;
  uint32_t depth = 0;
  while (idx != kNil) {
    path.push_back(idx);
    Node& node = nodes_[idx];
    if (PointEquals(idx, key)) {
      if (node.deleted) {
        return false;
      }
      node.deleted = true;
      ++tombstones_;
      --size_;
      for (uint32_t i : path) {
        --nodes_[i].live;
      }
      if (tombstones_ > (size_ + tombstones_) / 4) {
        RebuildAll();
      }
      return true;
    }
    const uint32_t cd = depth % dim_;
    idx = key[cd] < Point(idx)[cd] ? node.left : node.right;
    ++depth;
  }
  return false;
}

void KdTree2::CollectLive(uint32_t idx, std::vector<uint32_t>* out) {
  std::vector<uint32_t> stack;
  if (idx != kNil) {
    stack.push_back(idx);
  }
  while (!stack.empty()) {
    const uint32_t cur = stack.back();
    stack.pop_back();
    const Node& node = nodes_[cur];
    if (node.left != kNil) {
      stack.push_back(node.left);
    }
    if (node.right != kNil) {
      stack.push_back(node.right);
    }
    if (node.deleted) {
      free_list_.push_back(cur);
      --tombstones_;
    } else {
      out->push_back(cur);
    }
  }
}

uint32_t KdTree2::BuildBalanced(std::vector<uint32_t>& idxs, size_t lo,
                                size_t hi, uint32_t depth) {
  if (lo >= hi) {
    return kNil;
  }
  const size_t mid = (lo + hi) / 2;
  const uint32_t cd = depth % dim_;
  std::nth_element(idxs.begin() + static_cast<ptrdiff_t>(lo),
                   idxs.begin() + static_cast<ptrdiff_t>(mid),
                   idxs.begin() + static_cast<ptrdiff_t>(hi),
                   [this, cd](uint32_t a, uint32_t b) {
                     return Point(a)[cd] < Point(b)[cd];
                   });
  // Coordinate ties: the search invariant is "equal coordinates go right",
  // but nth_element may scatter pivot-equal elements to both sides.
  // Partition so the left part is strictly below the pivot coordinate and
  // place a pivot-valued element at the split.
  const double pivot = Point(idxs[mid])[cd];
  const auto first_ge =
      std::partition(idxs.begin() + static_cast<ptrdiff_t>(lo),
                     idxs.begin() + static_cast<ptrdiff_t>(hi),
                     [this, cd, pivot](uint32_t a) {
                       return Point(a)[cd] < pivot;
                     });
  size_t split = static_cast<size_t>(first_ge - idxs.begin());
  for (size_t j = split; j < hi; ++j) {
    if (Point(idxs[j])[cd] == pivot) {
      std::swap(idxs[split], idxs[j]);
      break;
    }
  }
  const uint32_t node_idx = idxs[split];
  const uint32_t left = BuildBalanced(idxs, lo, split, depth + 1);
  const uint32_t right = BuildBalanced(idxs, split + 1, hi, depth + 1);
  Node& node = nodes_[node_idx];
  node.left = left;
  node.right = right;
  node.live = static_cast<uint32_t>(hi - lo);
  return node_idx;
}

void KdTree2::RebuildSubtree(uint32_t* link, uint32_t depth) {
  std::vector<uint32_t> live;
  CollectLive(*link, &live);
  *link = BuildBalanced(live, 0, live.size(), depth);
}

void KdTree2::RebuildAll() {
  // Full rebuild compacts the node and point arrays: live nodes are copied
  // into fresh, exactly-sized storage so tombstone space is reclaimed.
  std::vector<uint32_t> live;
  CollectLive(root_, &live);
  std::vector<double> new_points;
  new_points.reserve(live.size() * dim_);
  std::vector<Node> new_nodes;
  new_nodes.reserve(live.size());
  std::vector<uint64_t> values;
  values.reserve(live.size());
  for (const uint32_t idx : live) {
    const auto p = Point(idx);
    new_points.insert(new_points.end(), p.begin(), p.end());
    values.push_back(nodes_[idx].value);
  }
  std::vector<uint32_t> order(live.size());
  for (uint32_t i = 0; i < order.size(); ++i) {
    order[i] = i;
  }
  nodes_.assign(live.size(), Node{});
  for (uint32_t i = 0; i < live.size(); ++i) {
    nodes_[i].value = values[i];
  }
  points_ = std::move(new_points);
  free_list_.clear();
  free_list_.shrink_to_fit();
  nodes_.shrink_to_fit();
  points_.shrink_to_fit();
  root_ = BuildBalanced(order, 0, order.size(), 0);
}

void KdTree2::QueryWindow(
    std::span<const double> min, std::span<const double> max,
    const std::function<void(std::span<const double>, uint64_t)>& fn) const {
  assert(min.size() == dim_ && max.size() == dim_);
  std::vector<std::pair<uint32_t, uint32_t>> stack;
  if (root_ != kNil) {
    stack.emplace_back(root_, 0);
  }
  while (!stack.empty()) {
    const auto [idx, depth] = stack.back();
    stack.pop_back();
    const Node& node = nodes_[idx];
    const std::span<const double> point = Point(idx);
    if (!node.deleted) {
      bool inside = true;
      for (uint32_t d = 0; d < dim_; ++d) {
        inside = inside && point[d] >= min[d] && point[d] <= max[d];
      }
      if (inside) {
        fn(point, node.value);
      }
    }
    const uint32_t cd = depth % dim_;
    if (node.left != kNil && min[cd] < point[cd]) {
      stack.emplace_back(node.left, depth + 1);
    }
    if (node.right != kNil && max[cd] >= point[cd]) {
      stack.emplace_back(node.right, depth + 1);
    }
  }
}

size_t KdTree2::CountWindow(std::span<const double> min,
                            std::span<const double> max) const {
  size_t n = 0;
  QueryWindow(min, max, [&n](std::span<const double>, uint64_t) { ++n; });
  return n;
}

uint64_t KdTree2::MemoryBytes() const {
  constexpr uint64_t kAllocOverhead = 16;
  return nodes_.size() * sizeof(Node) + points_.size() * sizeof(double) +
         free_list_.size() * sizeof(uint32_t) + 3 * kAllocOverhead;
}

size_t KdTree2::MaxDepth() const {
  size_t max_depth = 0;
  std::vector<std::pair<uint32_t, size_t>> stack;
  if (root_ != kNil) {
    stack.emplace_back(root_, 1);
  }
  while (!stack.empty()) {
    const auto [idx, depth] = stack.back();
    stack.pop_back();
    max_depth = std::max(max_depth, depth);
    const Node& node = nodes_[idx];
    if (node.left != kNil) {
      stack.emplace_back(node.left, depth + 1);
    }
    if (node.right != kNil) {
      stack.emplace_back(node.right, depth + 1);
    }
  }
  return max_depth;
}

}  // namespace phtree
