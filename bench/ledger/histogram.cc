#include "histogram.h"

#include <algorithm>
#include <atomic>
#include <bit>

namespace phbench {

size_t LatencyHistogram::BucketOf(uint64_t ns) {
  if (ns < kSub) {
    return static_cast<size_t>(ns);
  }
  const uint32_t octave = 63 - static_cast<uint32_t>(std::countl_zero(ns));
  const uint32_t shift = octave - kSubBits;
  const uint64_t sub = (ns >> shift) - kSub;
  return static_cast<size_t>(kSub + (octave - kSubBits) * kSub + sub);
}

uint64_t LatencyHistogram::BucketLow(size_t bucket) {
  if (bucket < kSub) {
    return bucket;
  }
  const uint64_t octave = (bucket - kSub) / kSub + kSubBits;
  const uint64_t sub = (bucket - kSub) % kSub;
  return (kSub + sub) << (octave - kSubBits);
}

uint64_t LatencyHistogram::BucketWidth(size_t bucket) {
  if (bucket < kSub) {
    return 1;
  }
  const uint64_t octave = (bucket - kSub) / kSub + kSubBits;
  return uint64_t{1} << (octave - kSubBits);
}

void LatencyHistogram::Record(uint64_t ns) {
  if (counts_.empty()) {
    counts_.assign(kBuckets, 0);
  }
  ++counts_[BucketOf(ns)];
  ++count_;
  sum_ += ns;
  max_ = std::max(max_, ns);
}

void LatencyHistogram::Merge(const LatencyHistogram& other) {
  if (other.count_ == 0) {
    return;
  }
  if (counts_.empty()) {
    counts_.assign(kBuckets, 0);
  }
  for (size_t b = 0; b < kBuckets; ++b) {
    counts_[b] += other.counts_[b];
  }
  count_ += other.count_;
  sum_ += other.sum_;
  max_ = std::max(max_, other.max_);
}

void LatencyHistogram::MergeScaled(const LatencyHistogram& other,
                                   double factor) {
  if (other.count_ == 0) {
    return;
  }
  if (counts_.empty()) {
    counts_.assign(kBuckets, 0);
  }
  for (size_t b = 0; b < kBuckets; ++b) {
    if (other.counts_[b] != 0) {
      const double mid = static_cast<double>(BucketLow(b)) +
                         static_cast<double>(BucketWidth(b)) / 2;
      counts_[BucketOf(static_cast<uint64_t>(mid * factor))] += other.counts_[b];
    }
  }
  count_ += other.count_;
  sum_ += static_cast<uint64_t>(static_cast<double>(other.sum_) * factor);
  max_ = std::max(max_,
                  static_cast<uint64_t>(static_cast<double>(other.max_) * factor));
}

double LatencyHistogram::Percentile(double q) const {
  if (count_ == 0) {
    return 0.0;
  }
  if (q >= 1.0) {
    return static_cast<double>(max_);
  }
  const double target = std::max(q, 0.0) * static_cast<double>(count_);
  double below = 0.0;
  for (size_t b = 0; b < kBuckets; ++b) {
    const double c = static_cast<double>(counts_[b]);
    if (c > 0 && below + c >= target) {
      const double frac = (target - below) / c;
      const double v = static_cast<double>(BucketLow(b)) +
                       frac * static_cast<double>(BucketWidth(b));
      return std::min(v, static_cast<double>(max_));
    }
    below += c;
  }
  return static_cast<double>(max_);
}

namespace {

// Keeps the canary chain from being folded away; clients on several
// threads time the canary at once.
std::atomic<uint64_t> g_canary_sink{0};

double CalibrateTimerNs() {
  constexpr int kPairs = 200000;
  LatencyHistogram h;
  for (int i = 0; i < kPairs; ++i) {
    const auto t0 = Clock::now();
    const auto t1 = Clock::now();
    h.Record(ElapsedNs(t0, t1));
  }
  return h.Percentile(0.5);
}

}  // namespace

uint64_t CanaryNs() {
  uint64_t x = 0x9e3779b97f4a7c15ULL ^
               g_canary_sink.load(std::memory_order_relaxed);
  const auto t0 = Clock::now();
  for (int i = 0; i < 20000; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
  }
  const auto t1 = Clock::now();
  g_canary_sink.store(x, std::memory_order_relaxed);
  return ElapsedNs(t0, t1);
}

double TimerOverheadNs() {
  static const double overhead = CalibrateTimerNs();
  return overhead;
}

}  // namespace phbench
