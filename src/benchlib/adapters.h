// Uniform adapter layer over the five index structures so the benchmark
// harnesses can be written once and instantiated per structure (the paper
// benches PH, KD1, KD2, CB1, CB2 side by side).
#ifndef PHTREE_BENCHLIB_ADAPTERS_H_
#define PHTREE_BENCHLIB_ADAPTERS_H_

#include <cstdint>
#include <span>
#include <string>

#include "critbit/critbit1.h"
#include "critbit/critbit2.h"
#include "kdtree/kdtree1.h"
#include "kdtree/kdtree2.h"
#include "phtree/phtree_d.h"

namespace phtree::bench {

/// Adapter for the PH-tree (double keys).
class PhAdapter {
 public:
  static constexpr const char* kName = "PH";
  explicit PhAdapter(uint32_t dim) : tree_(dim) {}
  bool Insert(std::span<const double> p, uint64_t v) {
    return tree_.Insert(p, v);
  }
  bool Erase(std::span<const double> p) { return tree_.Erase(p); }
  bool Contains(std::span<const double> p) const {
    return tree_.Contains(p);
  }
  size_t CountWindow(std::span<const double> lo,
                     std::span<const double> hi) const {
    return tree_.CountWindow(lo, hi);
  }
  uint64_t MemoryBytes() const { return tree_.ComputeStats().memory_bytes; }
  size_t size() const { return tree_.size(); }
  const PhTreeD& tree() const { return tree_; }

 private:
  PhTreeD tree_;
};

/// Adapter for the PH-tree in key-only "set" mode — the configuration the
/// paper itself measured (its trees store points without payloads), used by
/// the space benchmarks as the row "PH(set)".
class PhSetAdapter {
 public:
  static constexpr const char* kName = "PH(set)";
  explicit PhSetAdapter(uint32_t dim) : tree_(dim, SetConfig()) {}
  bool Insert(std::span<const double> p, uint64_t /*v*/) {
    return tree_.Insert(p, 0);
  }
  bool Erase(std::span<const double> p) { return tree_.Erase(p); }
  bool Contains(std::span<const double> p) const {
    return tree_.Contains(p);
  }
  size_t CountWindow(std::span<const double> lo,
                     std::span<const double> hi) const {
    return tree_.CountWindow(lo, hi);
  }
  uint64_t MemoryBytes() const { return tree_.ComputeStats().memory_bytes; }
  size_t size() const { return tree_.size(); }
  const PhTreeD& tree() const { return tree_; }

 private:
  static PhTreeConfig SetConfig() {
    PhTreeConfig config;
    config.store_values = false;
    return config;
  }

  PhTreeD tree_;
};

/// Generic adapter for the baselines, which already share this interface.
template <typename Tree, const char* Name>
class TreeAdapter {
 public:
  static constexpr const char* kName = Name;
  explicit TreeAdapter(uint32_t dim) : tree_(dim) {}
  bool Insert(std::span<const double> p, uint64_t v) {
    return tree_.Insert(p, v);
  }
  bool Erase(std::span<const double> p) { return tree_.Erase(p); }
  bool Contains(std::span<const double> p) const {
    return tree_.Contains(p);
  }
  size_t CountWindow(std::span<const double> lo,
                     std::span<const double> hi) const {
    return tree_.CountWindow(lo, hi);
  }
  uint64_t MemoryBytes() const { return tree_.MemoryBytes(); }
  size_t size() const { return tree_.size(); }
  const Tree& tree() const { return tree_; }

 private:
  Tree tree_;
};

inline constexpr char kKd1Name[] = "KD1";
inline constexpr char kKd2Name[] = "KD2";
inline constexpr char kCb1Name[] = "CB1";
inline constexpr char kCb2Name[] = "CB2";

using Kd1Adapter = TreeAdapter<KdTree1, kKd1Name>;
using Kd2Adapter = TreeAdapter<KdTree2, kKd2Name>;
using Cb1Adapter = TreeAdapter<CritBit1, kCb1Name>;
using Cb2Adapter = TreeAdapter<CritBit2, kCb2Name>;

}  // namespace phtree::bench

#endif  // PHTREE_BENCHLIB_ADAPTERS_H_
