// k-nearest-neighbour search over a PH-tree. The paper lists NN search as a
// desirable extension whose prototype "indicates that such searches can be
// performed efficiently" (Sect. 5); this module implements it as KDTREE 2's
// best-first branch and bound: a priority queue holds only nodes, keyed by
// a lower bound on the squared distance of their region to the query
// point, and a bounded max-heap holds the n best points so far, ordered by
// (squared distance, z-order). The pruning bound is the heap's top once it
// holds n points: a node or entry is expanded only while its bound is <=
// the top's distance (at exactly that distance it may hold a tied point of
// smaller z-order), a point replaces the top only when it sorts strictly
// before it, and the search ends when the nearest queued bound exceeds it.
// The queue may be seeded with the roots of several trees, each at a lower
// bound on its entries' distance: a sharded tree runs one search over all
// of its shards. Equal coordinates are exactly 0 apart, infinities
// included; a coordinate that decodes to NaN has no distance order, and
// results over such keys are unspecified.
#ifndef PHTREE_PHTREE_KNN_H_
#define PHTREE_PHTREE_KNN_H_

#include <cstdint>
#include <span>
#include <vector>

#include "phtree/phtree.h"

namespace phtree {

/// One kNN result: entry key, payload, squared distance.
struct KnnResult {
  PhKey key;
  uint64_t value;
  double dist2;
};

/// Distance semantics for kNN over integer keys.
enum class KnnMetric {
  /// Squared Euclidean distance on the raw uint64 coordinates.
  kL2Integer,
  /// Squared Euclidean distance after decoding coordinates as doubles
  /// (SortableBitsToDouble); use for PhTreeD-encoded trees.
  kL2Double,
};

/// One tree of a search, with a lower bound on the squared distance from
/// the center to any of its entries (0 when nothing better is known).
struct KnnRoot {
  const PhTree* tree;
  double min_dist2;
};

/// Returns the `n` entries of `tree` closest to `center`, ordered by
/// ascending distance; exact distance ties are broken deterministically by
/// the z-order of the keys, so the result sequence is a pure function of
/// the tree contents. Returns fewer than `n` results iff the tree holds
/// fewer entries.
std::vector<KnnResult> KnnSearch(const PhTree& tree,
                                 std::span<const uint64_t> center, size_t n,
                                 KnnMetric metric = KnnMetric::kL2Integer);

/// The same search over the union of several trees of one dimensionality
/// with disjoint keys: one queue, seeded with every non-empty tree's root
/// at its bound, so the result equals that of one tree holding all their
/// entries. Each tree's root is loaded once; an MVCC caller keeps one epoch
/// guard across the call.
std::vector<KnnResult> KnnSearch(std::span<const KnnRoot> roots,
                                 std::span<const uint64_t> center, size_t n,
                                 KnnMetric metric = KnnMetric::kL2Integer);

/// The squared distance from `center` to the nearest point of the box
/// [lo, hi]: a lower bound for every key inside it (a KnnRoot's bound).
double KnnBoxDist2(std::span<const uint64_t> center,
                   std::span<const uint64_t> lo,
                   std::span<const uint64_t> hi, KnnMetric metric);

/// Convenience overload for double-encoded trees: converts `center`, uses
/// the kL2Double metric and decodes nothing (result keys stay encoded).
std::vector<KnnResult> KnnSearchD(const PhTree& tree,
                                  std::span<const double> center, size_t n);

}  // namespace phtree

#endif  // PHTREE_PHTREE_KNN_H_
