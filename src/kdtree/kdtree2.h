// KD2: the second kd-tree baseline (paper Sect. 4.1 uses two independent
// kd-tree libraries; their strengths differ but neither dominates). KD2 is a
// different design point from KD1: array-backed nodes (two flat allocations
// instead of per-node heap blocks), scapegoat-style partial rebuilding on
// insert (weight-balance alpha), and tombstone deletion with periodic
// compaction. It is better behaved on adversarial insertion orders and has
// different constant factors — mirroring how the paper's KD2 behaved
// differently from KD1.
#ifndef PHTREE_KDTREE_KDTREE2_H_
#define PHTREE_KDTREE_KDTREE2_H_

#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <vector>

namespace phtree {

class KdTree2 {
 public:
  explicit KdTree2(uint32_t dim);

  KdTree2(const KdTree2&) = delete;
  KdTree2& operator=(const KdTree2&) = delete;

  uint32_t dim() const { return dim_; }
  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  bool Insert(std::span<const double> key, uint64_t value);
  bool Erase(std::span<const double> key);
  std::optional<uint64_t> Find(std::span<const double> key) const;
  bool Contains(std::span<const double> key) const {
    return Find(key).has_value();
  }

  void QueryWindow(std::span<const double> min, std::span<const double> max,
                   const std::function<void(std::span<const double>,
                                            uint64_t)>& fn) const;
  size_t CountWindow(std::span<const double> min,
                     std::span<const double> max) const;

  uint64_t MemoryBytes() const;
  size_t MaxDepth() const;

 private:
  static constexpr uint32_t kNil = ~uint32_t{0};
  /// Weight-balance bound: a subtree is rebuilt when one child holds more
  /// than kAlpha of its live nodes.
  static constexpr double kAlpha = 0.70;

  struct Node {
    uint32_t left = kNil;
    uint32_t right = kNil;
    uint32_t live = 0;  // live nodes in this subtree (incl. self)
    uint64_t value = 0;
    bool deleted = false;
  };

  std::span<const double> Point(uint32_t idx) const {
    return {points_.data() + static_cast<size_t>(idx) * dim_, dim_};
  }
  bool PointEquals(uint32_t idx, std::span<const double> key) const;

  uint32_t AllocNode(std::span<const double> key, uint64_t value);
  void CollectLive(uint32_t idx, std::vector<uint32_t>* out);
  uint32_t BuildBalanced(std::vector<uint32_t>& idxs, size_t lo, size_t hi,
                         uint32_t depth);
  void RebuildSubtree(uint32_t* link, uint32_t depth);
  void RebuildAll();

  uint32_t dim_;
  size_t size_ = 0;
  size_t tombstones_ = 0;
  uint32_t root_ = kNil;
  std::vector<Node> nodes_;
  std::vector<double> points_;  // nodes_[i] owns points_[i*dim .. +dim)
  std::vector<uint32_t> free_list_;
};

}  // namespace phtree

#endif  // PHTREE_KDTREE_KDTREE2_H_
