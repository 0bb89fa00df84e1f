#include "oracle.h"

#include <algorithm>
#include <queue>

#include "common/bits.h"

namespace phbench {
namespace {

double CoordDelta(uint64_t a, uint64_t b, phtree::KnnMetric metric) {
  if (metric == phtree::KnnMetric::kL2Double) {
    return phtree::SortableBitsToDouble(a) - phtree::SortableBitsToDouble(b);
  }
  return static_cast<double>(a > b ? a - b : b - a);
}

}  // namespace

double KnnDist2(std::span<const uint64_t> a, std::span<const uint64_t> b,
                phtree::KnnMetric metric) {
  double sum = 0;
  for (size_t d = 0; d < a.size(); ++d) {
    const double delta = CoordDelta(a[d], b[d], metric);
    sum += delta * delta;
  }
  return sum;
}

PointOracle::PointOracle(uint32_t dim, std::span<const uint64_t> keys,
                         std::span<const uint64_t> values)
    : dim_(dim), keys_(keys), values_(values), by_dim_(dim) {
  for (uint32_t d = 0; d < dim_; ++d) {
    std::vector<uint32_t>& order = by_dim_[d];
    order.resize(values_.size());
    for (uint32_t i = 0; i < order.size(); ++i) {
      order[i] = i;
    }
    std::sort(order.begin(), order.end(), [&](uint32_t a, uint32_t b) {
      const uint64_t ka = keys_[size_t{a} * dim_ + d];
      const uint64_t kb = keys_[size_t{b} * dim_ + d];
      return ka != kb ? ka < kb : a < b;
    });
  }
}

std::optional<uint64_t> PointOracle::Find(std::span<const uint64_t> key) const {
  const std::vector<uint32_t>& order = by_dim_[0];
  auto it = std::lower_bound(order.begin(), order.end(), key[0],
                             [&](uint32_t i, uint64_t v) {
                               return keys_[size_t{i} * dim_] < v;
                             });
  for (; it != order.end() && keys_[size_t{*it} * dim_] == key[0]; ++it) {
    if (std::equal(key.begin(), key.end(),
                   keys_.begin() + size_t{*it} * dim_)) {
      return values_[*it];
    }
  }
  return std::nullopt;
}

WindowDigest PointOracle::Window(std::span<const uint64_t> lo,
                                 std::span<const uint64_t> hi) const {
  // Narrowest slab first: its index range is the only one scanned.
  size_t best_d = 0;
  size_t best_begin = 0;
  size_t best_end = values_.size();
  for (uint32_t d = 0; d < dim_; ++d) {
    const std::vector<uint32_t>& order = by_dim_[d];
    const auto coord_less = [&](uint32_t i, uint64_t v) {
      return keys_[size_t{i} * dim_ + d] < v;
    };
    const auto value_less = [&](uint64_t v, uint32_t i) {
      return v < keys_[size_t{i} * dim_ + d];
    };
    const size_t begin =
        std::lower_bound(order.begin(), order.end(), lo[d], coord_less) -
        order.begin();
    const size_t end =
        std::upper_bound(order.begin(), order.end(), hi[d], value_less) -
        order.begin();
    if (end <= begin) {
      return {};
    }
    if (end - begin < best_end - best_begin) {
      best_d = d;
      best_begin = begin;
      best_end = end;
    }
  }
  WindowDigest out;
  const std::vector<uint32_t>& order = by_dim_[best_d];
  for (size_t j = best_begin; j < best_end; ++j) {
    const uint32_t i = order[j];
    bool inside = true;
    for (uint32_t d = 0; d < dim_ && inside; ++d) {
      const uint64_t v = keys_[size_t{i} * dim_ + d];
      inside = lo[d] <= v && v <= hi[d];
    }
    if (inside) {
      ++out.count;
      out.value_sum += values_[i];
    }
  }
  return out;
}

std::vector<Neighbor> PointOracle::Knn(std::span<const uint64_t> center,
                                       size_t k,
                                       phtree::KnnMetric metric) const {
  // The best k so far, worst on top, under the (dist2, z-order) order.
  const auto better = [&](const Neighbor& a, const Neighbor& b) {
    if (a.dist2 != b.dist2) {
      return a.dist2 < b.dist2;
    }
    return phtree::ZOrderLess(key(a.index), key(b.index));
  };
  std::priority_queue<Neighbor, std::vector<Neighbor>, decltype(better)> best(
      better);
  const auto consider = [&](uint32_t i) {
    const Neighbor n{i, KnnDist2(center, key(i), metric)};
    if (best.size() < k) {
      best.push(n);
    } else if (better(n, best.top())) {
      best.pop();
      best.push(n);
    }
  };
  const std::vector<uint32_t>& order = by_dim_[0];
  const size_t mid =
      std::lower_bound(order.begin(), order.end(), center[0],
                       [&](uint32_t i, uint64_t v) {
                         return keys_[size_t{i} * dim_] < v;
                       }) -
      order.begin();
  size_t up = mid;
  size_t down = mid;  // next candidate below is order[down - 1]
  for (;;) {
    const bool full = best.size() == k;
    const auto axis2 = [&](uint32_t i) {
      const double delta =
          CoordDelta(keys_[size_t{i} * dim_], center[0], metric);
      return delta * delta;
    };
    const bool up_ok =
        up < order.size() && (!full || axis2(order[up]) <= best.top().dist2);
    const bool down_ok =
        down > 0 && (!full || axis2(order[down - 1]) <= best.top().dist2);
    if (!up_ok && !down_ok) {
      break;
    }
    if (up_ok) {
      consider(order[up++]);
    }
    if (down_ok) {
      consider(order[--down]);
    }
  }
  std::vector<Neighbor> out;
  while (!best.empty()) {
    out.push_back(best.top());
    best.pop();
  }
  std::reverse(out.begin(), out.end());
  return out;
}

bool SameNeighbors(const std::vector<phtree::KnnResult>& got,
                   const std::vector<Neighbor>& want,
                   const PointOracle& oracle) {
  if (got.size() != want.size()) {
    return false;
  }
  for (size_t i = 0; i < got.size(); ++i) {
    const std::span<const uint64_t> k = oracle.key(want[i].index);
    if (got[i].dist2 != want[i].dist2 ||
        !std::equal(k.begin(), k.end(), got[i].key.begin(), got[i].key.end())) {
      return false;
    }
  }
  return true;
}

}  // namespace phbench
