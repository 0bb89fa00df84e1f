// Log-bucket latency histogram for phbench.
//
// Samples are nanoseconds. Values below 128 get one bucket each; above
// that every power-of-two octave is split into 128 equal sub-buckets, so a
// bucket is at most 1/128 (0.8%) of its value wide over the whole uint64
// range in 7,424 buckets. Percentiles interpolate linearly inside the
// bucket that holds the requested rank, so two runs whose distributions
// differ slightly report slightly different numbers instead of snapping to
// the same bucket edge. Histograms from different threads merge by adding
// counts.
#ifndef PHBENCH_HISTOGRAM_H_
#define PHBENCH_HISTOGRAM_H_

#include <chrono>
#include <cstdint>
#include <vector>

namespace phbench {

class LatencyHistogram {
 public:
  static constexpr uint32_t kSubBits = 7;
  static constexpr uint64_t kSub = uint64_t{1} << kSubBits;
  static constexpr size_t kBuckets = kSub + (64 - kSubBits) * kSub;

  void Record(uint64_t ns);
  void Merge(const LatencyHistogram& other);
  /// Merges `other` with every sample multiplied by `factor` (each bucket
  /// moves as its midpoint does).
  void MergeScaled(const LatencyHistogram& other, double factor);

  uint64_t count() const { return count_; }
  uint64_t max() const { return max_; }
  double mean() const {
    return count_ == 0 ? 0.0
                       : static_cast<double>(sum_) / static_cast<double>(count_);
  }
  double sum() const { return static_cast<double>(sum_); }

  /// Value at quantile q in [0, 1], in ns; 0 when empty. q == 1 is max().
  double Percentile(double q) const;

  static size_t BucketOf(uint64_t ns);
  static uint64_t BucketLow(size_t bucket);
  static uint64_t BucketWidth(size_t bucket);

 private:
  std::vector<uint64_t> counts_;  // sized to kBuckets on first Record
  uint64_t count_ = 0;
  uint64_t sum_ = 0;
  uint64_t max_ = 0;
};

using Clock = std::chrono::steady_clock;

inline uint64_t ElapsedNs(Clock::time_point from, Clock::time_point to) {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(to - from).count());
}

/// Median cost of one back-to-back steady_clock::now() pair, in ns,
/// measured once per process. Every timed sample has it subtracted.
double TimerOverheadNs();

/// Time of a fixed chain of dependent ALU operations, in ns: follows the
/// core clock, which the host changes as its other tenants come and go.
uint64_t CanaryNs();

/// A latency sample from a now() pair with the pair's own cost removed.
inline uint64_t SampleNs(Clock::time_point t0, Clock::time_point t1) {
  static const auto overhead = static_cast<uint64_t>(TimerOverheadNs() + 0.5);
  const uint64_t raw = ElapsedNs(t0, t1);
  return raw > overhead ? raw - overhead : 0;
}

}  // namespace phbench

#endif  // PHBENCH_HISTOGRAM_H_
