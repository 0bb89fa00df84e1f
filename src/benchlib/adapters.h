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
#include "phtree/sharded.h"

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

/// Adapter for the lock-striped sharded tree (PhTreeSharded, 8 shards —
/// the concurrency benchmark's default configuration): double keys encoded
/// through Sect. 3.3 like PhAdapter, lock-free reads, writers on different
/// shards in parallel; safe to drive from many threads at once. Uses hash
/// routing: the benchmarks feed SortableDoubleBits-encoded doubles, whose
/// shared sign/exponent top bits would send every key to one z-prefix
/// shard (see sharded.h "Routing modes").
class PhShardedAdapter {
 public:
  static constexpr const char* kName = "PH(sharded)";
  explicit PhShardedAdapter(uint32_t dim, uint32_t num_shards = 8)
      : tree_(dim, num_shards, ShardRouting::kHash) {}
  bool Insert(std::span<const double> p, uint64_t v) {
    return tree_.Insert(EncodeKeyD(p), v);
  }
  bool Erase(std::span<const double> p) { return tree_.Erase(EncodeKeyD(p)); }
  bool Contains(std::span<const double> p) const {
    return tree_.Contains(EncodeKeyD(p));
  }
  size_t CountWindow(std::span<const double> lo,
                     std::span<const double> hi) const {
    return tree_.CountWindow(EncodeKeyD(lo), EncodeKeyD(hi));
  }
  uint64_t MemoryBytes() const { return tree_.ComputeStats().memory_bytes; }
  size_t size() const { return tree_.size(); }
  const PhTreeSharded& tree() const { return tree_; }
  PhTreeSharded& tree() { return tree_; }

 private:
  PhTreeSharded tree_;
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
