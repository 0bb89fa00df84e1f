// PhTreeSet: a k-dimensional point *set* — the configuration the paper
// itself evaluates (its entries are "sets of values" with no payload,
// Sect. 3.1). Identical structure and queries to PhTree, but postfix
// entries carry no 64-bit payload slot, saving 8+ bytes per entry.
#ifndef PHTREE_PHTREE_PHTREE_SET_H_
#define PHTREE_PHTREE_PHTREE_SET_H_

#include <cstdint>
#include <span>
#include <vector>

#include "phtree/cursor.h"
#include "phtree/phtree.h"

namespace phtree {

/// A set of k-dimensional uint64 points.
class PhTreeSet {
 public:
  explicit PhTreeSet(uint32_t dim, PhTreeConfig config = PhTreeConfig{})
      : tree_(dim, WithoutValues(config)) {}

  uint32_t dim() const { return tree_.dim(); }
  size_t size() const { return tree_.size(); }
  bool empty() const { return tree_.empty(); }

  /// Adds a point; false if it was already present.
  bool Insert(std::span<const uint64_t> key) { return tree_.Insert(key, 0); }

  bool Contains(std::span<const uint64_t> key) const {
    return tree_.Contains(key);
  }

  bool Erase(std::span<const uint64_t> key) { return tree_.Erase(key); }

  void Clear() { tree_.Clear(); }

  /// All points inside the closed box [min, max].
  std::vector<PhKey> QueryWindow(std::span<const uint64_t> min,
                                 std::span<const uint64_t> max) const {
    std::vector<PhKey> out;
    for (TreeCursor it(tree_, min, max); it.Valid(); it.Next()) {
      out.emplace_back(it.key().begin(), it.key().end());
    }
    return out;
  }

  size_t CountWindow(std::span<const uint64_t> min,
                     std::span<const uint64_t> max) const {
    return tree_.CountWindow(min, max);
  }

  PhTreeStats ComputeStats() const { return tree_.ComputeStats(); }

  /// The underlying key-only tree (for iterators, kNN, validation).
  const PhTree& tree() const { return tree_; }

 private:
  static PhTreeConfig WithoutValues(PhTreeConfig config) {
    config.store_values = false;
    return config;
  }

  PhTree tree_;
};

}  // namespace phtree

#endif  // PHTREE_PHTREE_PHTREE_SET_H_
