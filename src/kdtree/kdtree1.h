// KD1: a classic pointer-based kd-tree (Bentley 1975), the first of the two
// kd-tree baselines of the paper's evaluation (Sect. 4.1). Incremental
// insertion with round-robin splitting dimensions, no rebalancing — the
// tree shape depends on insertion order, exactly the behaviour the paper
// contrasts the PH-tree against.
#ifndef PHTREE_KDTREE_KDTREE1_H_
#define PHTREE_KDTREE_KDTREE1_H_

#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <vector>

namespace phtree {

/// Pointer-based kd-tree mapping k-dimensional double points to 64-bit
/// payloads. Duplicate points are rejected on insert.
class KdTree1 {
 public:
  explicit KdTree1(uint32_t dim);
  ~KdTree1();

  KdTree1(const KdTree1&) = delete;
  KdTree1& operator=(const KdTree1&) = delete;

  uint32_t dim() const { return dim_; }
  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  /// Inserts `key` -> `value`; false if an equal point already exists.
  bool Insert(std::span<const double> key, uint64_t value);

  /// Removes `key` via the classic subtree-minimum replacement.
  bool Erase(std::span<const double> key);

  std::optional<uint64_t> Find(std::span<const double> key) const;
  bool Contains(std::span<const double> key) const {
    return Find(key).has_value();
  }

  /// Calls `fn` for every point inside the closed box [min, max].
  void QueryWindow(std::span<const double> min, std::span<const double> max,
                   const std::function<void(std::span<const double>,
                                            uint64_t)>& fn) const;

  size_t CountWindow(std::span<const double> min,
                     std::span<const double> max) const;

  /// Structural memory footprint in bytes.
  uint64_t MemoryBytes() const;

  /// Maximum node depth (degeneration indicator).
  size_t MaxDepth() const;

 private:
  struct KdNode;

  KdNode* RemoveRec(KdNode* node, uint32_t depth, std::span<const double> key,
                   bool* erased);
  const KdNode* FindMin(const KdNode* node, uint32_t depth, uint32_t target_d,
                        const KdNode* best) const;
  void DeleteRec(KdNode* node);

  uint32_t dim_;
  size_t size_ = 0;
  KdNode* root_ = nullptr;
};

}  // namespace phtree

#endif  // PHTREE_KDTREE_KDTREE1_H_
