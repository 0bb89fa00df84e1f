// Unit test for the phbench latency histogram. Plain executable: prints
// each failed check and exits 1 on any failure.
//
//   .bench_build/phbench/histogram_test
#include <cmath>
#include <cstdio>
#include <cstdint>

#include "common/rng.h"
#include "histogram.h"

namespace phbench {
namespace {

int g_failures = 0;

void Check(bool ok, const char* what) {
  if (!ok) {
    std::printf("FAIL: %s\n", what);
    ++g_failures;
  }
}

void TestBucketsCoverEveryValue() {
  phtree::Rng rng(1);
  bool ok = true;
  for (int i = 0; i < 200000 && ok; ++i) {
    const uint64_t v = rng.NextU64() >> rng.NextBounded(64);
    const size_t b = LatencyHistogram::BucketOf(v);
    const uint64_t lo = LatencyHistogram::BucketLow(b);
    const uint64_t width = LatencyHistogram::BucketWidth(b);
    ok = b < LatencyHistogram::kBuckets && lo <= v && v - lo < width;
  }
  Check(ok, "every value lands in the bucket whose range holds it");
  for (uint64_t v = 0; v < 128; ++v) {
    ok = ok && LatencyHistogram::BucketOf(v) == v;
  }
  Check(ok, "values below 128 have exact buckets");
  Check(LatencyHistogram::BucketOf(~uint64_t{0}) ==
            LatencyHistogram::kBuckets - 1,
        "max uint64 lands in the last bucket");
  bool monotone = true;
  for (size_t b = 1; b < LatencyHistogram::kBuckets; ++b) {
    monotone = monotone && LatencyHistogram::BucketLow(b) ==
                               LatencyHistogram::BucketLow(b - 1) +
                                   LatencyHistogram::BucketWidth(b - 1);
  }
  Check(monotone, "buckets tile the value range without gaps");
}

void TestPercentilesOfUniformData() {
  LatencyHistogram h;
  for (uint64_t v = 1000; v < 101000; ++v) {
    h.Record(v);
  }
  Check(h.count() == 100000, "count");
  Check(h.max() == 100999, "max");
  Check(std::fabs(h.mean() - 50999.5) < 1e-6, "mean is exact");
  const double p50 = h.Percentile(0.5);
  const double p99 = h.Percentile(0.99);
  const double p999 = h.Percentile(0.999);
  Check(std::fabs(p50 - 51000) / 51000 < 0.008, "p50 within bucket width");
  Check(std::fabs(p99 - 100000) / 100000 < 0.008, "p99 within bucket width");
  Check(std::fabs(p999 - 100900) / 100900 < 0.008, "p999 within bucket width");
  Check(h.Percentile(1.0) == 100999.0, "p100 is the max");
  Check(h.Percentile(0.0) >= 1000.0, "p0 is at least the min");
}

void TestInterpolationMovesWithData() {
  LatencyHistogram a;
  LatencyHistogram b;
  for (int i = 0; i < 1000; ++i) {
    a.Record(5000);
    b.Record(5000);
  }
  b.Record(5001);
  b.Record(5010);
  Check(a.Percentile(0.5) != b.Percentile(0.5),
        "p50 interpolates inside a bucket instead of snapping to its edge");
}

void TestMergeEqualsCombinedRecording() {
  phtree::Rng rng(7);
  LatencyHistogram parts[3];
  LatencyHistogram all;
  for (int i = 0; i < 30000; ++i) {
    const uint64_t v = 100 + rng.NextBounded(1000000);
    parts[i % 3].Record(v);
    all.Record(v);
  }
  LatencyHistogram merged;
  for (const LatencyHistogram& p : parts) {
    merged.Merge(p);
  }
  merged.Merge(LatencyHistogram());
  Check(merged.count() == all.count(), "merged count");
  Check(merged.max() == all.max(), "merged max");
  Check(merged.sum() == all.sum(), "merged sum");
  bool same = true;
  for (const double q : {0.01, 0.5, 0.9, 0.99, 0.999}) {
    same = same && merged.Percentile(q) == all.Percentile(q);
  }
  Check(same, "merged percentiles equal those of one combined histogram");
}

void TestMergeScaledMovesEverySample() {
  LatencyHistogram h;
  for (uint64_t v = 1000; v < 101000; ++v) {
    h.Record(v);
  }
  LatencyHistogram doubled;
  doubled.MergeScaled(h, 2.0);
  doubled.MergeScaled(LatencyHistogram(), 3.0);
  Check(doubled.count() == h.count(), "scaled count");
  Check(doubled.sum() == 2 * h.sum(), "scaled sum");
  Check(doubled.max() == 2 * h.max(), "scaled max");
  bool close = true;
  for (const double q : {0.1, 0.5, 0.99}) {
    close = close && std::fabs(doubled.Percentile(q) / h.Percentile(q) - 2) < 0.02;
  }
  Check(close, "scaled percentiles are twice the originals");
}

void TestEmptyAndTimer() {
  const LatencyHistogram empty;
  Check(empty.Percentile(0.5) == 0.0 && empty.count() == 0, "empty histogram");
  const double overhead = TimerOverheadNs();
  Check(overhead < 5000, "a steady_clock pair costs less than 5 us");
  const auto t0 = Clock::now();
  Check(SampleNs(t0, t0) == 0, "a zero-length sample clamps to 0");
  const uint64_t canary = CanaryNs();
  Check(canary > 0 && canary < 10000000, "the canary takes between 0 and 10 ms");
}

}  // namespace
}  // namespace phbench

int main() {
  phbench::TestBucketsCoverEveryValue();
  phbench::TestPercentilesOfUniformData();
  phbench::TestInterpolationMovesWithData();
  phbench::TestMergeEqualsCombinedRecording();
  phbench::TestMergeScaledMovesEverySample();
  phbench::TestEmptyAndTimer();
  if (phbench::g_failures != 0) {
    std::printf("%d check(s) failed\n", phbench::g_failures);
    return 1;
  }
  std::printf("histogram_test: all checks passed\n");
  return 0;
}
