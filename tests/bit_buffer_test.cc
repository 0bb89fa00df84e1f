#include "common/bit_buffer.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "common/bits.h"
#include "common/rng.h"

namespace phtree {
namespace {

// Reference model: a plain vector<bool>.
class BitModel {
 public:
  void Resize(size_t n) { bits_.resize(n, false); }

  uint64_t Read(size_t pos, uint32_t n) const {
    uint64_t v = 0;
    for (uint32_t i = 0; i < n; ++i) {
      v = (v << 1) | (bits_[pos + i] ? 1 : 0);
    }
    return v;
  }

  void Write(size_t pos, uint32_t n, uint64_t value) {
    for (uint32_t i = 0; i < n; ++i) {
      bits_[pos + i] = ((value >> (n - 1 - i)) & 1) != 0;
    }
  }

  uint64_t CountOnes(size_t pos) const {
    uint64_t c = 0;
    for (size_t i = 0; i < pos; ++i) {
      c += bits_[i] ? 1 : 0;
    }
    return c;
  }

  uint64_t FindNextOne(size_t pos) const {
    for (size_t i = pos; i < bits_.size(); ++i) {
      if (bits_[i]) {
        return i;
      }
    }
    return kNoBit;
  }

 private:
  std::vector<bool> bits_;
};

// A zeroed word span of `bits` bits: the zero tail every stream keeps.
std::vector<uint64_t> Span(uint64_t bits) {
  return std::vector<uint64_t>(WordsFor(bits), 0);
}

TEST(BitBuffer, ReadWriteSingleWord) {
  auto w = Span(64);
  WriteBits(w.data(), 0, 64, 0x0123456789abcdefULL);
  EXPECT_EQ(ReadBits(w.data(), 0, 64), 0x0123456789abcdefULL);
  EXPECT_EQ(ReadBits(w.data(), 0, 4), 0x0u);
  EXPECT_EQ(ReadBits(w.data(), 4, 4), 0x1u);
  EXPECT_EQ(ReadBits(w.data(), 60, 4), 0xfu);
  EXPECT_EQ(ReadBits(w.data(), 8, 16), 0x2345u);
}

TEST(BitBuffer, ReadWriteAcrossWordBoundary) {
  auto w = Span(128);
  WriteBits(w.data(), 60, 8, 0xA5);
  EXPECT_EQ(ReadBits(w.data(), 60, 8), 0xA5u);
  EXPECT_EQ(ReadBits(w.data(), 56, 16), 0x0A50u);
  WriteBits(w.data(), 32, 64, ~uint64_t{0});
  EXPECT_EQ(ReadBits(w.data(), 32, 64), ~uint64_t{0});
  EXPECT_EQ(ReadBits(w.data(), 0, 32), 0u);
  EXPECT_EQ(ReadBits(w.data(), 96, 32), 0u);
}

TEST(BitBuffer, ZeroWidthOperationsAreNoops) {
  auto w = Span(10);
  WriteBits(w.data(), 0, 10, 0x2A5);
  WriteBits(w.data(), 3, 0, 0xffff);
  EXPECT_EQ(ReadBits(w.data(), 3, 0), 0u);
  const auto src = Span(64);
  CopyBits(src.data(), 0, w.data(), 5, 0);
  EXPECT_EQ(ReadBits(w.data(), 0, 10), 0x2A5u);
  EXPECT_EQ(ReadBits(w.data(), 10, 54), 0u);
}

TEST(BitBuffer, CountOnesAndFindNextOne) {
  auto w = Span(200);
  SetBit(w.data(), 0, 1);
  SetBit(w.data(), 63, 1);
  SetBit(w.data(), 64, 1);
  SetBit(w.data(), 130, 1);
  SetBit(w.data(), 199, 1);
  EXPECT_EQ(CountOnesInRange(w.data(), 0, 200), 5u);
  EXPECT_EQ(CountOnesInRange(w.data(), 0, 64), 2u);
  EXPECT_EQ(CountOnesInRange(w.data(), 0, 65), 3u);
  EXPECT_EQ(FindNextOne(w.data(), 0, 200), 0u);
  EXPECT_EQ(FindNextOne(w.data(), 1, 200), 63u);
  EXPECT_EQ(FindNextOne(w.data(), 65, 200), 130u);
  EXPECT_EQ(FindNextOne(w.data(), 131, 200), 199u);
  EXPECT_EQ(FindNextOne(w.data(), 131, 199), kNoBit);  // end is exclusive
  EXPECT_EQ(FindNextOne(w.data(), 200, 200), kNoBit);
}

TEST(BitBuffer, CountOnesInRangeMatchesPrefixDifference) {
  Rng rng(21);
  auto w = Span(1000);
  for (uint64_t i = 0; i < 1000; ++i) {
    SetBit(w.data(), i, rng.NextU64() & 1);
  }
  const auto prefix = [&](uint64_t pos) {
    uint64_t ones = 0;
    for (uint64_t i = 0; i < pos; ++i) {
      ones += GetBit(w.data(), i);
    }
    return ones;
  };
  for (int iter = 0; iter < 2000; ++iter) {
    uint64_t x = rng.NextBounded(1001);
    uint64_t y = rng.NextBounded(1001);
    if (x > y) {
      std::swap(x, y);
    }
    ASSERT_EQ(CountOnesInRange(w.data(), x, y), prefix(y) - prefix(x))
        << x << ".." << y;
  }
  EXPECT_EQ(CountOnesInRange(w.data(), 0, 0), 0u);
  EXPECT_EQ(CountOnesInRange(w.data(), 1000, 1000), 0u);
  EXPECT_EQ(CountOnesInRange(w.data(), 0, 1000), prefix(1000));
}

TEST(BitBuffer, CopyFromCopiesArbitraryRanges) {
  Rng rng(3);
  auto src = Span(777);
  for (uint64_t i = 0; i < 777; ++i) {
    SetBit(src.data(), i, rng.NextU64() & 1);
  }
  auto dst = Span(900);
  CopyBits(src.data(), 5, dst.data(), 123, 700);
  for (uint64_t i = 0; i < 700; ++i) {
    ASSERT_EQ(GetBit(dst.data(), 123 + i), GetBit(src.data(), 5 + i)) << i;
  }
}

// Property test: a long random sequence of operations matches the model.
// The stream fills a fixed-size span and is edited by field writes and by
// copies from a second, random stream (how a node is written: fields, and
// postfix records copied from the node it replaces).
TEST(BitBuffer, RandomOpsMatchModel) {
  constexpr uint64_t kSize = 1 << 12;
  constexpr uint64_t kCapacityBits = kSize + 64;
  Rng rng(1234);
  auto w = Span(kCapacityBits);
  auto src = Span(kSize);
  BitModel model;
  model.Resize(kSize);
  BitModel src_model;
  src_model.Resize(kSize);
  for (uint64_t i = 0; i < kSize; ++i) {
    const uint64_t bit = rng.NextU64() & 1;
    SetBit(src.data(), i, bit);
    src_model.Write(i, 1, bit);
  }
  for (int iter = 0; iter < 20000; ++iter) {
    const uint64_t op = rng.NextBounded(5);
    switch (op) {
      case 0: {  // write
        const uint32_t n = static_cast<uint32_t>(1 + rng.NextBounded(64));
        const uint64_t pos = rng.NextBounded(kSize - n + 1);
        const uint64_t v = rng.NextU64();
        WriteBits(w.data(), pos, n, v);
        model.Write(pos, n, v & LowMask(n));
        break;
      }
      case 1: {  // copy a range of the source stream
        const uint64_t n = rng.NextBounded(300);
        const uint64_t from = rng.NextBounded(kSize - n + 1);
        const uint64_t to = rng.NextBounded(kSize - n + 1);
        CopyBits(src.data(), from, w.data(), to, n);
        for (uint64_t i = 0; i < n; ++i) {
          model.Write(to + i, 1, src_model.Read(from + i, 1));
        }
        break;
      }
      case 2: {  // read + compare
        const uint32_t n = static_cast<uint32_t>(1 + rng.NextBounded(64));
        const uint64_t pos = rng.NextBounded(kSize - n + 1);
        ASSERT_EQ(ReadBits(w.data(), pos, n), model.Read(pos, n));
        break;
      }
      case 3: {  // popcount prefix
        const uint64_t pos = rng.NextBounded(kSize + 1);
        ASSERT_EQ(CountOnesInRange(w.data(), 0, pos), model.CountOnes(pos));
        break;
      }
      case 4: {  // find next one
        const uint64_t pos = rng.NextBounded(kSize + 2);
        ASSERT_EQ(FindNextOne(w.data(), pos, kSize), model.FindNextOne(pos));
        break;
      }
    }
  }
  // Final full comparison, including the zero tail past the stream.
  for (uint64_t i = 0; i < kSize; ++i) {
    ASSERT_EQ(GetBit(w.data(), i), model.Read(i, 1));
  }
  EXPECT_EQ(FindNextOne(w.data(), kSize, kCapacityBits), kNoBit);
}

}  // namespace
}  // namespace phtree
