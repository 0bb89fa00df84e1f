#include "phtree/knn.h"

#include <algorithm>
#include <cassert>
#include <limits>

#include "common/bits.h"
#include "common/simd.h"
#include "phtree/cursor.h"

namespace phtree {
namespace {

/// a - b along one axis (its magnitude under kL2Integer). Equal
/// coordinates are exactly 0 apart: decoded, a shared infinite coordinate
/// would give inf - inf = NaN, which orders against nothing. A finite
/// a - a is +0.0 anyway, so this changes no finite distance.
double CoordDelta(uint64_t a, uint64_t b, KnnMetric metric) {
  if (a == b) {
    return 0.0;
  }
  if (metric == KnnMetric::kL2Double) {
    return SortableBitsToDouble(a) - SortableBitsToDouble(b);
  }
  const uint64_t delta = a > b ? a - b : b - a;
  return static_cast<double>(delta);
}

double PointDist2(std::span<const uint64_t> center,
                  std::span<const uint64_t> point, KnnMetric metric) {
  double sum = 0;
  for (size_t d = 0; d < center.size(); ++d) {
    const double delta = CoordDelta(center[d], point[d], metric);
    sum += delta * delta;
  }
  return sum;
}

/// Squared distance along one axis from `c` to the interval [lo, hi]: to
/// its nearest coordinate, which is `c` itself (0 apart) inside the
/// interval. Clamping commutes with the order-preserving double encoding,
/// so the nearest point in encoded space is the nearest in metric space,
/// and as rounding is monotone the result is a lower bound, bit for bit,
/// on every PointDist2 term of a key in the interval.
double AxisDist2(uint64_t c, uint64_t lo, uint64_t hi, KnnMetric metric) {
  const double delta = CoordDelta(c, std::clamp(c, lo, hi), metric);
  return delta * delta;
}

/// A queued node: a lower bound on the squared distance of its entries,
/// the node, the arena of the tree that holds it, and the slot of its
/// path key in the search's path buffer. The path key holds the key bits
/// above the node's infix; the infix is read when the node is expanded,
/// so queueing a child touches only its parent (the child is prefetched).
struct QueuedNode {
  double bound;
  const Node* node;
  const NodeArena* arena;
  uint32_t slot;
};

/// One of the n best points so far; its key is the heap's key slot `slot`.
struct Best {
  double dist2;
  uint64_t value;
  uint32_t slot;
};

/// The heap order: (dist2, z-order) ascending, over keys in `keys`.
struct BestBefore {
  const uint64_t* keys;
  uint32_t dim;

  bool operator()(const Best& a, const Best& b) const {
    if (a.dist2 != b.dist2) {
      return a.dist2 < b.dist2;
    }
    return ZOrderLess({keys + a.slot * dim, dim}, {keys + b.slot * dim, dim});
  }
};

/// Queued nodes reserved up front, so that a 2D or 3D search never grows
/// its buffers: kNN(10) next to stored points of 10^5-point CUBE trees
/// peaked at 78 queued nodes in 2D and 114 in 3D over 2,000 queries each
/// (6D: 514).
constexpr size_t kQueueReserve = 128;

/// Marks the end of the path buffer's free list.
constexpr uint64_t kNoSlot = ~uint64_t{0};

/// KDTREE 2's search (PAPERS.md) over PH-tree nodes: a min-queue of nodes
/// only, keyed by their bound, beside a bounded max-heap of the n best
/// points ordered by (dist2, z-order). Path keys live in one flat buffer
/// whose freed slots are reused, the n best keys in n flat slots, and each
/// entry's key is built in one stack key.
class Search {
 public:
  Search(std::span<const uint64_t> center, size_t n, KnnMetric metric)
      : center_(center),
        dim_(static_cast<uint32_t>(center.size())),
        n_(n),
        metric_(metric) {}

  std::vector<KnnResult> Run(std::span<const KnnRoot> roots) {
    queue_.reserve(kQueueReserve);
    paths_.reserve(kQueueReserve * dim_);
    size_t entries = 0;
    for (const KnnRoot& root : roots) {
      assert(root.tree->dim() == dim_);
      const Node* node = root.tree->root();
      if (node != nullptr) {
        entries += root.tree->size();
        const uint32_t slot = AcquireSlot();
        std::fill_n(&paths_[slot * dim_], dim_, 0);
        Push({root.min_dist2, node, root.tree->arena(), slot});
      }
    }
    // A reservation only: under MVCC a tree's size may be read at another
    // version than its root.
    const size_t kept = std::min(n_, entries);
    best_.reserve(kept);
    best_keys_.reserve(kept * dim_);
    while (!queue_.empty()) {
      std::pop_heap(queue_.begin(), queue_.end(), BoundGreater);
      const QueuedNode item = queue_.back();
      queue_.pop_back();
      // Every bound left is >= this one. A bound equal to the n-th best
      // distance may still hold a tied point that sorts before it in
      // z-order, so only a greater one ends the search.
      if (item.bound > Cutoff()) {
        break;
      }
      Expand(item);
    }
    std::sort_heap(best_.begin(), best_.end(), Before());
    std::vector<KnnResult> results;
    results.reserve(best_.size());
    for (const Best& b : best_) {
      const uint64_t* key = KeyAt(b.slot);
      results.push_back(KnnResult{PhKey(key, key + dim_), b.value, b.dist2});
    }
    return results;
  }

 private:
  static bool BoundGreater(const QueuedNode& a, const QueuedNode& b) {
    return a.bound > b.bound;
  }

  /// The heap's order, under which its front is the n-th best point.
  BestBefore Before() const { return {best_keys_.data(), dim_}; }

  const uint64_t* KeyAt(uint32_t slot) const {
    return &best_keys_[slot * dim_];
  }

  /// The largest distance a node or point can have and still matter: the
  /// n-th best point's once n are held, +inf before.
  double Cutoff() const {
    return best_.size() == n_ ? best_.front().dist2
                              : std::numeric_limits<double>::infinity();
  }

  /// A free slot of the path buffer. A free slot's first word links to
  /// the next free one.
  uint32_t AcquireSlot() {
    if (free_ == kNoSlot) {
      paths_.resize(paths_.size() + dim_);
      return static_cast<uint32_t>(paths_.size() / dim_ - 1);
    }
    const uint32_t slot = static_cast<uint32_t>(free_);
    free_ = paths_[slot * dim_];
    return slot;
  }

  void ReleaseSlot(uint32_t slot) {
    paths_[slot * dim_] = free_;
    free_ = slot;
  }

  void Push(const QueuedNode& item) {
    queue_.push_back(item);
    std::push_heap(queue_.begin(), queue_.end(), BoundGreater);
  }

  void Expand(const QueuedNode& item) {
    const Node* node = item.node;
    uint64_t key[kMaxDims];
    std::copy_n(&paths_[item.slot * dim_], dim_, key);
    ReleaseSlot(item.slot);
    node->ReadInfixInto({key, dim_});
    // Per axis, the distance to the lower and the upper half of the
    // node's region, split at its address bit: an entry's region bound is
    // their sum over its address bits, and the node's region bound the
    // sum of the nearer halves.
    const uint32_t pl = node->postfix_len();
    const uint64_t half = uint64_t{1} << pl;
    double halves[kMaxDims][2];
    double region = 0;
    for (uint32_t d = 0; d < dim_; ++d) {
      const uint64_t lo = key[d] & ~LowMask(pl + 1);
      halves[d][0] = AxisDist2(center_[d], lo, lo | (half - 1), metric_);
      halves[d][1] = AxisDist2(center_[d], lo | half,
                               lo | half | (half - 1), metric_);
      region += std::min(halves[d][0], halves[d][1]);
    }
    if (region > Cutoff()) {
      return;
    }
    NodeCursor cursor;
    for (cursor.BindAll(node); cursor.valid(); cursor.Next()) {
      const uint64_t addr = cursor.addr();
      double bound = 0;
      for (uint32_t d = 0; d < dim_; ++d) {
        bound += halves[d][(addr >> (dim_ - 1 - d)) & 1];
      }
      if (bound > Cutoff()) {
        continue;
      }
      ApplyHcAddress(addr, pl, {key, dim_});
      if (cursor.is_sub()) {
        const Node* child = item.arena->NodeAt(cursor.sub());
        // Handle provenance: every reachable node must live in its tree's
        // arena (catches stale handles after Clear()/moves in debug).
        assert(item.arena->Owns(child));
        simd::PrefetchRead(child);
        const uint32_t slot = AcquireSlot();
        std::copy_n(key, dim_, &paths_[slot * dim_]);
        Push({bound, child, item.arena, slot});
      } else {
        const uint64_t value = cursor.ReadPostfix({key, dim_});
        Offer(PointDist2(center_, {key, dim_}, metric_), value, key);
      }
    }
  }

  /// Keeps the point if it is among the n best so far: while fewer are
  /// held, always; then only if it sorts strictly before the n-th best,
  /// which it replaces.
  void Offer(double dist2, uint64_t value, const uint64_t* key) {
    if (best_.size() < n_) {
      const uint32_t slot = static_cast<uint32_t>(best_.size());
      best_keys_.insert(best_keys_.end(), key, key + dim_);
      best_.push_back({dist2, value, slot});
      std::push_heap(best_.begin(), best_.end(), Before());
      return;
    }
    const Best& top = best_.front();
    const bool before = dist2 < top.dist2 ||
                        (dist2 == top.dist2 &&
                         ZOrderLess({key, dim_}, {KeyAt(top.slot), dim_}));
    if (!before) {
      return;
    }
    std::pop_heap(best_.begin(), best_.end(), Before());
    Best& last = best_.back();
    std::copy_n(key, dim_, &best_keys_[last.slot * dim_]);
    last.dist2 = dist2;
    last.value = value;
    std::push_heap(best_.begin(), best_.end(), Before());
  }

  const std::span<const uint64_t> center_;
  const uint32_t dim_;
  const size_t n_;
  const KnnMetric metric_;
  std::vector<QueuedNode> queue_;
  std::vector<uint64_t> paths_;
  uint64_t free_ = kNoSlot;
  std::vector<Best> best_;
  std::vector<uint64_t> best_keys_;
};

}  // namespace

std::vector<KnnResult> KnnSearch(const PhTree& tree,
                                 std::span<const uint64_t> center, size_t n,
                                 KnnMetric metric) {
  const KnnRoot root{&tree, 0.0};
  return KnnSearch({&root, 1}, center, n, metric);
}

std::vector<KnnResult> KnnSearch(std::span<const KnnRoot> roots,
                                 std::span<const uint64_t> center, size_t n,
                                 KnnMetric metric) {
  if (n == 0) {
    return {};
  }
  return Search(center, n, metric).Run(roots);
}

double KnnBoxDist2(std::span<const uint64_t> center,
                   std::span<const uint64_t> lo,
                   std::span<const uint64_t> hi, KnnMetric metric) {
  double sum = 0;
  for (size_t d = 0; d < center.size(); ++d) {
    sum += AxisDist2(center[d], lo[d], hi[d], metric);
  }
  return sum;
}

std::vector<KnnResult> KnnSearchD(const PhTree& tree,
                                  std::span<const double> center, size_t n) {
  PhKey encoded(center.size());
  for (size_t i = 0; i < center.size(); ++i) {
    encoded[i] = SortableDoubleBits(center[i]);
  }
  return KnnSearch(tree, encoded, n, KnnMetric::kL2Double);
}

}  // namespace phtree
