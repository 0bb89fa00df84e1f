// Typed-value adapter: PhTreeMap<V> stores arbitrary value types behind the
// uint64 payload slots of the core PhTree (payloads index a slab with a free
// list). Keeps the core non-templated (fast builds, one code instance) while
// giving users a natural map-style API.
#ifndef PHTREE_PHTREE_PHTREE_MAP_H_
#define PHTREE_PHTREE_PHTREE_MAP_H_

#include <cstdint>
#include <deque>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "phtree/cursor.h"
#include "phtree/phtree.h"

namespace phtree {

/// Maps k-dimensional integer keys to values of type V.
template <typename V>
class PhTreeMap {
 public:
  explicit PhTreeMap(uint32_t dim, const PhTreeConfig& config = PhTreeConfig{})
      : tree_(dim, config) {}

  uint32_t dim() const { return tree_.dim(); }
  size_t size() const { return tree_.size(); }
  bool empty() const { return tree_.empty(); }

  /// Inserts key -> value; returns false if the key already exists.
  bool Insert(std::span<const uint64_t> key, V value) {
    const uint64_t slot = AllocSlot(std::move(value));
    if (!tree_.Insert(key, slot)) {
      FreeSlot(slot);
      return false;
    }
    return true;
  }

  /// Returns a pointer to the stored value, or nullptr. The pointer stays
  /// valid until the entry is erased (slab storage is stable).
  V* Find(std::span<const uint64_t> key) {
    const auto slot = tree_.Find(key);
    return slot ? &slab_[*slot] : nullptr;
  }
  const V* Find(std::span<const uint64_t> key) const {
    const auto slot = tree_.Find(key);
    return slot ? &slab_[*slot] : nullptr;
  }

  bool Contains(std::span<const uint64_t> key) const {
    return tree_.Contains(key);
  }

  bool Erase(std::span<const uint64_t> key) {
    const auto slot = tree_.Find(key);
    if (!slot) {
      return false;
    }
    tree_.Erase(key);
    FreeSlot(*slot);
    return true;
  }

  /// All entries in the box [min, max]; values are copied out.
  std::vector<std::pair<PhKey, V>> QueryWindow(
      std::span<const uint64_t> min, std::span<const uint64_t> max) const {
    std::vector<std::pair<PhKey, V>> out;
    for (TreeCursor it(tree_, min, max); it.Valid(); it.Next()) {
      out.emplace_back(PhKey(it.key().begin(), it.key().end()),
                       slab_[it.value()]);
    }
    return out;
  }

  const PhTree& tree() const { return tree_; }

 private:
  uint64_t AllocSlot(V value) {
    if (!free_slots_.empty()) {
      const uint64_t slot = free_slots_.back();
      free_slots_.pop_back();
      slab_[slot] = std::move(value);
      return slot;
    }
    slab_.push_back(std::move(value));
    return slab_.size() - 1;
  }

  void FreeSlot(uint64_t slot) { free_slots_.push_back(slot); }

  PhTree tree_;
  std::deque<V> slab_;
  std::vector<uint64_t> free_slots_;
};

}  // namespace phtree

#endif  // PHTREE_PHTREE_PHTREE_MAP_H_
