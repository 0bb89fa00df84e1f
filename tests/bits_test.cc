#include "common/bits.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <vector>

#include "common/rng.h"

namespace phtree {
namespace {

TEST(SortableDoubleBits, PreservesOrderOnSamples) {
  const std::vector<double> samples = {
      -std::numeric_limits<double>::infinity(),
      -1e300, -12345.678, -1.0, -0.5, -1e-300,
      -std::numeric_limits<double>::denorm_min(),
      0.0, std::numeric_limits<double>::denorm_min(), 1e-300, 0.5,
      0.4999999, 0.5000001, 1.0, 12345.678, 1e300,
      std::numeric_limits<double>::infinity()};
  for (size_t i = 0; i < samples.size(); ++i) {
    for (size_t j = 0; j < samples.size(); ++j) {
      EXPECT_EQ(samples[i] < samples[j],
                SortableDoubleBits(samples[i]) < SortableDoubleBits(samples[j]))
          << samples[i] << " vs " << samples[j];
    }
  }
}

TEST(SortableDoubleBits, PreservesOrderRandomised) {
  Rng rng(7);
  for (int iter = 0; iter < 100000; ++iter) {
    const double a = (rng.NextDouble() - 0.5) * std::exp2(
        static_cast<double>(rng.NextBounded(600)) - 300.0);
    const double b = (rng.NextDouble() - 0.5) * std::exp2(
        static_cast<double>(rng.NextBounded(600)) - 300.0);
    ASSERT_EQ(a < b, SortableDoubleBits(a) < SortableDoubleBits(b))
        << a << " vs " << b;
  }
}

TEST(SortableDoubleBits, NegativeZeroNormalised) {
  EXPECT_EQ(SortableDoubleBits(-0.0), SortableDoubleBits(0.0));
  EXPECT_EQ(SortableBitsToDouble(SortableDoubleBits(-0.0)), 0.0);
}

TEST(SortableDoubleBits, RoundTrips) {
  Rng rng(11);
  for (int iter = 0; iter < 100000; ++iter) {
    const double v = (rng.NextDouble() - 0.5) * std::exp2(
        static_cast<double>(rng.NextBounded(600)) - 300.0);
    EXPECT_EQ(SortableBitsToDouble(SortableDoubleBits(v)), v);
  }
}

TEST(PaperConversion, MatchesPaperSignedOrdering) {
  // Sect. 3.3: i1 > i2 iff f1 > f2 under *signed* comparison.
  Rng rng(13);
  for (int iter = 0; iter < 100000; ++iter) {
    const double a = (rng.NextDouble() - 0.5) * 1e12;
    const double b = (rng.NextDouble() - 0.5) * 1e12;
    ASSERT_EQ(a > b, PaperDoubleToLong(a) > PaperDoubleToLong(b));
  }
}

TEST(PaperConversion, Table4Values) {
  // Paper Table 4: IEEE Binary64 integer representation.
  EXPECT_EQ(PaperDoubleToLong(0.40000), 4600877379321698714LL);
  EXPECT_EQ(PaperDoubleToLong(0.50000), 4602678819172646912LL);
}

TEST(PaperConversion, RoundTrips) {
  Rng rng(17);
  for (int iter = 0; iter < 100000; ++iter) {
    const double v = (rng.NextDouble() - 0.5) * std::exp2(
        static_cast<double>(rng.NextBounded(600)) - 300.0);
    EXPECT_EQ(PaperLongToDouble(PaperDoubleToLong(v)), v);
  }
}

TEST(HcAddress, MatchesPaperFigure2) {
  // Fig. 2: entry (0001, 1000) as 4-bit values; first bits are 0 and 1, so
  // the root address is 01 (dim 0 = most significant address bit). Using
  // 64-bit values we place the figure's 4 bits at the top.
  const std::vector<uint64_t> key = {0x1ULL << 60, 0x8ULL << 60};
  EXPECT_EQ(HcAddressAt(key, 63), 0b01u);
}

TEST(HcAddress, RoundTripsThroughApply) {
  Rng rng(23);
  for (int iter = 0; iter < 10000; ++iter) {
    const uint32_t dim = 1 + static_cast<uint32_t>(rng.NextBounded(16));
    const uint32_t pl = static_cast<uint32_t>(rng.NextBounded(64));
    std::vector<uint64_t> key(dim);
    for (auto& v : key) {
      v = rng.NextU64();
    }
    const uint64_t addr = HcAddressAt(key, pl);
    std::vector<uint64_t> rebuilt = key;
    ApplyHcAddress(addr, pl, rebuilt);
    EXPECT_EQ(rebuilt, key);
    ApplyHcAddress(~addr & LowMask(dim), pl, rebuilt);
    EXPECT_EQ(HcAddressAt(rebuilt, pl), ~addr & LowMask(dim));
  }
}

TEST(FirstDifferingBit, FindsTheHighestDifferenceOfAnyDimension) {
  const std::vector<uint64_t> a = {0x0123456789abcdefULL, 42, ~uint64_t{0}};
  EXPECT_EQ(FirstDifferingBit(a, a), -1);
  for (size_t d = 0; d < a.size(); ++d) {
    for (const int bit : {0, 17, 63}) {
      std::vector<uint64_t> b = a;
      b[d] ^= uint64_t{1} << bit;
      EXPECT_EQ(FirstDifferingBit(a, b), bit) << "dim " << d;
      EXPECT_EQ(FirstDifferingBit(b, a), bit) << "dim " << d;
      // A difference at bit 0 of another dimension does not move it.
      b[(d + 1) % a.size()] ^= 1;
      EXPECT_EQ(FirstDifferingBit(a, b), bit) << "dim " << d;
    }
  }
}

TEST(Interleave, RoundTrips) {
  Rng rng(29);
  for (int iter = 0; iter < 1000; ++iter) {
    const uint32_t dim = 1 + static_cast<uint32_t>(rng.NextBounded(20));
    std::vector<uint64_t> key(dim), z(dim), back(dim);
    for (auto& v : key) {
      v = rng.NextU64();
    }
    InterleaveZOrder(key, z);
    DeinterleaveZOrder(z, back);
    EXPECT_EQ(back, key);
  }
}

TEST(Interleave, FirstBitsComeFromMsbs) {
  // For key = {all-ones, zero}, the z-code must alternate 10 pairs.
  std::vector<uint64_t> key = {~uint64_t{0}, 0};
  std::vector<uint64_t> z(2);
  InterleaveZOrder(key, z);
  EXPECT_EQ(z[0], 0xAAAAAAAAAAAAAAAAULL);
  EXPECT_EQ(z[1], 0xAAAAAAAAAAAAAAAAULL);
}

TEST(Interleave, PreservesZOrderComparisons) {
  // Interleaved codes compare like z-order: the dimension with the highest
  // differing bit decides.
  std::vector<uint64_t> a = {8, 0};
  std::vector<uint64_t> b = {0, 15};
  std::vector<uint64_t> za(2), zb(2);
  InterleaveZOrder(a, za);
  InterleaveZOrder(b, zb);
  // a's dim-0 bit 3 outranks b's dim-1 bit 3 (dim 0 interleaves first).
  EXPECT_GT(za, zb);
}

}  // namespace
}  // namespace phtree
