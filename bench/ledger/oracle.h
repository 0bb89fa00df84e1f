// Reference answers for the phbench workloads, computed without the
// PH-tree: point lookup, window digest and exact kNN over a static point
// set, from per-dimension sorted index arrays. A window scans the slab of
// whichever dimension admits the fewest points; kNN grows a slab along
// dimension 0 outward from the center until the next point's distance
// along that axis alone exceeds the current k-th distance.
#ifndef PHBENCH_ORACLE_H_
#define PHBENCH_ORACLE_H_

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "phtree/knn.h"

namespace phbench {

/// What phbench keeps of one window answer: the number of entries and
/// the wrapping sum of their payloads.
struct WindowDigest {
  uint64_t count = 0;
  uint64_t value_sum = 0;
  bool operator==(const WindowDigest&) const = default;
};

struct Neighbor {
  uint32_t index;  ///< point index in the oracle's key set
  double dist2;
};

/// Squared distance exactly as phtree::KnnSearch computes it.
double KnnDist2(std::span<const uint64_t> a, std::span<const uint64_t> b,
                phtree::KnnMetric metric);

class PointOracle {
 public:
  /// Views n = keys.size() / dim points; `keys` (row-major) and `values`
  /// are not copied and must outlive the oracle.
  PointOracle(uint32_t dim, std::span<const uint64_t> keys,
              std::span<const uint64_t> values);

  size_t size() const { return values_.size(); }
  std::span<const uint64_t> key(size_t i) const {
    return keys_.subspan(i * dim_, dim_);
  }

  std::optional<uint64_t> Find(std::span<const uint64_t> key) const;
  WindowDigest Window(std::span<const uint64_t> lo,
                      std::span<const uint64_t> hi) const;
  /// The k nearest points in the order KnnSearch returns them: ascending
  /// distance, exact ties in z-order.
  std::vector<Neighbor> Knn(std::span<const uint64_t> center, size_t k,
                            phtree::KnnMetric metric) const;

 private:
  uint32_t dim_;
  std::span<const uint64_t> keys_;
  std::span<const uint64_t> values_;
  std::vector<std::vector<uint32_t>> by_dim_;  // indices sorted per dimension
};

/// True iff `got` lists the same keys with the same distances, in the same
/// order, as `want`.
bool SameNeighbors(const std::vector<phtree::KnnResult>& got,
                   const std::vector<Neighbor>& want,
                   const PointOracle& oracle);

}  // namespace phbench

#endif  // PHBENCH_ORACLE_H_
