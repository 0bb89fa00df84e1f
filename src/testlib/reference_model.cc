#include "testlib/reference_model.h"

#include <algorithm>
#include <cassert>

#include "phtree/cursor.h"

namespace phtree {
namespace testlib {
namespace {

// Mirrors knn.cc's CoordDelta/PointDist2 exactly: same expressions, same
// accumulation order, so the oracle's dist2 doubles are bit-identical to
// the trees'. Equal coordinates are exactly 0 apart, infinities included.
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

bool InBox(const PhKey& key, std::span<const uint64_t> min,
           std::span<const uint64_t> max) {
  for (size_t d = 0; d < key.size(); ++d) {
    if (key[d] < min[d] || key[d] > max[d]) {
      return false;
    }
  }
  return true;
}

}  // namespace

bool KnnResultLess(const KnnResult& a, const KnnResult& b) {
  if (a.dist2 != b.dist2) {
    return a.dist2 < b.dist2;
  }
  return ZOrderLess(a.key, b.key);
}

std::vector<std::pair<PhKey, uint64_t>> ReferenceModel::QueryWindow(
    std::span<const uint64_t> min, std::span<const uint64_t> max) const {
  assert(min.size() == dim_ && max.size() == dim_);
  std::vector<std::pair<PhKey, uint64_t>> out;
  const PhKey lo(min.begin(), min.end());
  const PhKey hi(max.begin(), max.end());
  // Every point p of the box satisfies lo <=z p <=z hi (z-order is monotone
  // per coordinate), so only the [lo, hi] z-range needs scanning. With a
  // degenerate box (min > max on some axis) lower_bound(lo) already sits
  // past hi in z-order and the loop body never runs.
  for (auto it = map_.lower_bound(lo);
       it != map_.end() && !ZOrderLess(hi, it->first); ++it) {
    if (InBox(it->first, min, max)) {
      out.push_back(*it);
    }
  }
  return out;
}

size_t ReferenceModel::CountWindow(std::span<const uint64_t> min,
                                   std::span<const uint64_t> max) const {
  assert(min.size() == dim_ && max.size() == dim_);
  size_t n = 0;
  const PhKey lo(min.begin(), min.end());
  const PhKey hi(max.begin(), max.end());
  for (auto it = map_.lower_bound(lo);
       it != map_.end() && !ZOrderLess(hi, it->first); ++it) {
    if (InBox(it->first, min, max)) {
      ++n;
    }
  }
  return n;
}

WindowPage ReferenceModel::QueryWindowPage(
    std::span<const uint64_t> min, std::span<const uint64_t> max,
    size_t page_size, std::span<const uint64_t> resume_after) const {
  assert(min.size() == dim_ && max.size() == dim_);
  WindowPage page;
  const PhKey lo(min.begin(), min.end());
  const PhKey hi(max.begin(), max.end());
  auto it = map_.lower_bound(lo);
  if (!resume_after.empty()) {
    assert(resume_after.size() == dim_);
    const PhKey token(resume_after.begin(), resume_after.end());
    // Resume strictly z-after the token; a token before the window start
    // (possible only with a caller-forged token) changes nothing.
    if (!ZOrderLess(token, lo)) {
      it = map_.upper_bound(token);
    }
  }
  for (; it != map_.end() && !ZOrderLess(hi, it->first); ++it) {
    if (!InBox(it->first, min, max)) {
      continue;
    }
    if (page.entries.size() == page_size) {
      page.more = true;  // exact: a further in-window entry exists
      break;
    }
    page.entries.push_back(*it);
  }
  if (page.more) {  // final pages carry no token, like the trees'
    page.token = page.entries.empty()
                     ? PhKey(resume_after.begin(), resume_after.end())
                     : page.entries.back().first;
  }
  return page;
}

std::vector<KnnResult> ReferenceModel::KnnSearch(
    std::span<const uint64_t> center, size_t n, KnnMetric metric) const {
  assert(center.size() == dim_);
  std::vector<KnnResult> all;
  if (n == 0) {
    return all;
  }
  all.reserve(map_.size());
  for (const auto& [key, value] : map_) {
    all.push_back(KnnResult{key, value, PointDist2(center, key, metric)});
  }
  std::sort(all.begin(), all.end(), KnnResultLess);
  if (all.size() > n) {
    all.resize(n);
  }
  return all;
}

}  // namespace testlib
}  // namespace phtree
