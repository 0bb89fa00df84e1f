#include "phtree/knn.h"

#include <algorithm>
#include <cassert>
#include <queue>

#include "common/bits.h"
#include "phtree/cursor.h"

namespace phtree {
namespace {

double CoordDelta(uint64_t a, uint64_t b, KnnMetric metric) {
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

/// Squared distance along one axis from `c` to the interval [lo, hi]. An
/// interval that contains `c` adds exactly 0, not CoordDelta(c, c), which
/// is NaN for a coordinate decoding to an infinity: so an infinite centre
/// still orders every region, and a sharded search still equals a single
/// tree's. Clamping commutes with the order-preserving double encoding,
/// so the nearest point in encoded space is the nearest in metric space.
double AxisDist2(uint64_t c, uint64_t lo, uint64_t hi, KnnMetric metric) {
  const uint64_t nearest = std::clamp(c, lo, hi);
  if (nearest == c) {
    return 0.0;
  }
  const double delta = CoordDelta(c, nearest, metric);
  return delta * delta;
}

/// Minimum squared distance from `center` to the region spanned by
/// clearing / setting the low `low_bits` bits of each dimension of
/// `path_key`.
double RegionDist2(std::span<const uint64_t> center,
                   std::span<const uint64_t> path_key, uint32_t low_bits,
                   KnnMetric metric) {
  double sum = 0;
  for (size_t d = 0; d < center.size(); ++d) {
    uint64_t lo;
    uint64_t hi;
    RegionBounds(path_key[d], low_bits, &lo, &hi);
    sum += AxisDist2(center[d], lo, hi, metric);
  }
  return sum;
}

struct QueueItem {
  double dist2;
  const Node* node;  // nullptr for point items
  PhKey key;         // node: path bits; point: full key
  // A point carries its payload, a node the arena that holds it, so one
  // queue holds the nodes of several trees at the size of a one-tree item.
  union {
    uint64_t value;
    const NodeArena* arena;
  };
};

// Min-heap order: ascending distance; on exact distance ties, nodes pop
// before points (so every tied point is enqueued before any is emitted)
// and tied points pop in z-order of their keys. As every node's distance
// bounds its entries', the result sequence is the entries sorted by
// (distance, z-order) — a pure function of the entries, however they are
// split over the seeded trees.
struct ItemGreater {
  bool operator()(const QueueItem& a, const QueueItem& b) const {
    if (a.dist2 != b.dist2) {
      return a.dist2 > b.dist2;
    }
    const bool a_point = a.node == nullptr;
    const bool b_point = b.node == nullptr;
    if (a_point != b_point) {
      return a_point;  // the node sorts first: it may hold more tied points
    }
    return ZOrderLess(b.key, a.key);
  }
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
  std::vector<KnnResult> results;
  if (n == 0) {
    return results;
  }
  std::priority_queue<QueueItem, std::vector<QueueItem>, ItemGreater> queue;
  size_t entries = 0;
  for (const KnnRoot& root : roots) {
    assert(root.tree->dim() == center.size());
    const Node* node = root.tree->root();
    if (node != nullptr) {
      entries += root.tree->size();
      queue.push(QueueItem{root.min_dist2, node, PhKey(center.size(), 0),
                           {.arena = root.tree->arena()}});
    }
  }
  results.reserve(std::min(n, entries));
  while (!queue.empty() && results.size() < n) {
    QueueItem item = std::move(const_cast<QueueItem&>(queue.top()));
    queue.pop();
    if (item.node == nullptr) {
      results.push_back(KnnResult{std::move(item.key), item.value,
                                  item.dist2});
      continue;
    }
    const Node* node = item.node;
    const uint32_t pl = node->postfix_len();
    NodeCursor cursor;
    for (cursor.BindAll(node); cursor.valid(); cursor.Next()) {
      const uint64_t ord = cursor.ordinal();
      PhKey key = item.key;
      ApplyHcAddress(cursor.addr(), pl, key);
      if (node->OrdinalIsSub(ord)) {
        const Node* child = item.arena->NodeAt(node->OrdinalSub(ord));
        // Handle provenance: every reachable node must live in its tree's
        // arena (catches stale handles after Clear()/moves in debug).
        assert(item.arena->Owns(child));
        child->ReadInfixInto(key);
        const double d2 =
            RegionDist2(center, key, child->postfix_len() + 1, metric);
        queue.push(
            QueueItem{d2, child, std::move(key), {.arena = item.arena}});
      } else {
        const uint64_t payload = node->ReadPostfixAndPayload(ord, key);
        const double d2 = PointDist2(center, key, metric);
        queue.push(
            QueueItem{d2, nullptr, std::move(key), {.value = payload}});
      }
    }
  }
  return results;
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
