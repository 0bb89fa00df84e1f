#include "common/simd.h"

#include <bit>

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__)) && \
    !defined(PHTREE_FORCE_SCALAR)
#define PHTREE_SIMD_HAS_HW 1
#include <immintrin.h>
#endif

namespace phtree::simd {
namespace internal {

size_t FindFirstStopScalar(const uint64_t* addrs, size_t n,
                           uint64_t mask_lower, uint64_t mask_upper) {
  for (size_t i = 0; i < n; ++i) {
    const uint64_t a = addrs[i];
    // a > mask_upper implies (a & ~mask_upper) != 0, so the two stop
    // conditions are disjoint and may be tested in either order.
    if (a > mask_upper) {
      return i;
    }
    if (((a & ~mask_upper) | (mask_lower & ~a)) == 0) {
      return i;
    }
  }
  return n;
}

uint64_t CountOnesWordsScalar(const uint64_t* words, size_t n) {
  uint64_t total = 0;
  for (size_t i = 0; i < n; ++i) {
    total += static_cast<uint64_t>(std::popcount(words[i]));
  }
  return total;
}

bool KeyInBoxScalar(const uint64_t* key, const uint64_t* lo,
                    const uint64_t* hi, size_t dim) {
  for (size_t d = 0; d < dim; ++d) {
    if (key[d] < lo[d] || key[d] > hi[d]) {
      return false;
    }
  }
  return true;
}

uint64_t ZSampleScalar(const uint64_t* key, uint32_t dim) {
  const uint32_t levels = 64u / dim;
  uint64_t sample = 0;
  for (uint32_t level = 0; level < levels; ++level) {
    for (uint32_t d = 0; d < dim; ++d) {
      sample = (sample << 1) | ((key[d] >> (63u - level)) & 1u);
    }
  }
  return sample;
}

const SimdOps kScalarOps = {
    &FindFirstStopScalar, &CountOnesWordsScalar, &KeyInBoxScalar,
    &ZSampleScalar,       "scalar",
};

}  // namespace internal

namespace {

#ifdef PHTREE_SIMD_HAS_HW

// AVX2 has no unsigned 64-bit compare; flipping the sign bit of both sides
// turns unsigned order into signed order for _mm256_cmpgt_epi64.
__attribute__((target("avx2"))) inline __m256i FlipSign(__m256i v) {
  return _mm256_xor_si256(
      v, _mm256_set1_epi64x(static_cast<long long>(0x8000000000000000ull)));
}

__attribute__((target("avx2"))) size_t FindFirstStopAvx2(
    const uint64_t* addrs, size_t n, uint64_t mask_lower,
    uint64_t mask_upper) {
  const __m256i v_ml = _mm256_set1_epi64x(static_cast<long long>(mask_lower));
  const __m256i v_mu = _mm256_set1_epi64x(static_cast<long long>(mask_upper));
  // Most LHC walks stop within the first few elements (the binary search
  // that precedes them lands near the window, and range masks keep many
  // addresses valid), so scan one vector-width scalar first: short scans
  // then cost exactly what the scalar twin costs, and the vector setup is
  // only paid on the long scans it actually speeds up.
  const size_t head = n < 4 ? n : size_t{4};
  const size_t early =
      internal::FindFirstStopScalar(addrs, head, mask_lower, mask_upper);
  if (early < head || head == n) {
    return early;
  }
  const __m256i v_mu_signed = FlipSign(v_mu);
  const __m256i zero = _mm256_setzero_si256();
  size_t i = head;
  for (; i + 4 <= n; i += 4) {
    const __m256i a =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(addrs + i));
    // bad = (a & ~mU) | (mL & ~a); valid lanes have bad == 0.
    const __m256i bad = _mm256_or_si256(_mm256_andnot_si256(v_mu, a),
                                        _mm256_andnot_si256(a, v_ml));
    const __m256i valid = _mm256_cmpeq_epi64(bad, zero);
    const __m256i past = _mm256_cmpgt_epi64(FlipSign(a), v_mu_signed);
    const __m256i stop = _mm256_or_si256(valid, past);
    const uint32_t lanes = static_cast<uint32_t>(
        _mm256_movemask_pd(_mm256_castsi256_pd(stop)));
    if (lanes != 0) {
      return i + static_cast<size_t>(__builtin_ctz(lanes));
    }
  }
  const size_t tail =
      internal::FindFirstStopScalar(addrs + i, n - i, mask_lower, mask_upper);
  return i + tail;
}

// Plain -O3 without -march lowers std::popcount to the SWAR multiply
// sequence; the target attribute licenses the single-cycle instruction.
__attribute__((target("popcnt"))) uint64_t CountOnesWordsPopcnt(
    const uint64_t* words, size_t n) {
  uint64_t s0 = 0, s1 = 0, s2 = 0, s3 = 0;
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    s0 += static_cast<uint64_t>(__builtin_popcountll(words[i]));
    s1 += static_cast<uint64_t>(__builtin_popcountll(words[i + 1]));
    s2 += static_cast<uint64_t>(__builtin_popcountll(words[i + 2]));
    s3 += static_cast<uint64_t>(__builtin_popcountll(words[i + 3]));
  }
  uint64_t total = s0 + s1 + s2 + s3;
  for (; i < n; ++i) {
    total += static_cast<uint64_t>(__builtin_popcountll(words[i]));
  }
  return total;
}

__attribute__((target("avx2"))) bool KeyInBoxAvx2(const uint64_t* key,
                                                  const uint64_t* lo,
                                                  const uint64_t* hi,
                                                  size_t dim) {
  size_t d = 0;
  for (; d + 4 <= dim; d += 4) {
    const __m256i k = FlipSign(
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(key + d)));
    const __m256i l = FlipSign(
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(lo + d)));
    const __m256i h = FlipSign(
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(hi + d)));
    const __m256i out = _mm256_or_si256(_mm256_cmpgt_epi64(l, k),
                                        _mm256_cmpgt_epi64(k, h));
    if (_mm256_movemask_pd(_mm256_castsi256_pd(out)) != 0) {
      return false;
    }
  }
  return internal::KeyInBoxScalar(key + d, lo + d, hi + d, dim - d);
}

// PDEP scatters the top floor(64/dim) bits of one dimension straight into
// their interleaved sample positions — one instruction per dimension
// instead of the scalar twin's levels*dim shift/or steps.
__attribute__((target("bmi2"))) uint64_t ZSampleBmi2(const uint64_t* key,
                                                     uint32_t dim) {
  const uint32_t levels = 64u / dim;
  if (levels == 0) {
    return 0;
  }
  // Deposit mask for dimension 0: one bit per level with stride `dim`; the
  // level-0 bit sits at position levels*dim - 1 (the sample's MSB).
  // Dimension d uses the same mask shifted right by d.
  uint64_t mask0 = 0;
  for (uint32_t j = 0; j < levels; ++j) {
    mask0 |= 1ull << ((j + 1) * dim - 1);
  }
  uint64_t sample = 0;
  for (uint32_t d = 0; d < dim; ++d) {
    sample |= _pdep_u64(key[d] >> (64u - levels), mask0 >> d);
  }
  return sample;
}

const SimdOps kPopcntOps = {
    &internal::FindFirstStopScalar, &CountOnesWordsPopcnt,
    &internal::KeyInBoxScalar,      &internal::ZSampleScalar,
    "popcnt",
};

const SimdOps kAvx2Ops = {
    &FindFirstStopAvx2, &CountOnesWordsPopcnt, &KeyInBoxAvx2,
    &ZSampleBmi2,       "avx2",
};

#endif  // PHTREE_SIMD_HAS_HW

const SimdOps* ProbeCpu() {
#ifdef PHTREE_SIMD_HAS_HW
  if (__builtin_cpu_supports("avx2") && __builtin_cpu_supports("popcnt") &&
      __builtin_cpu_supports("bmi2")) {
    return &kAvx2Ops;
  }
  if (__builtin_cpu_supports("popcnt")) {
    return &kPopcntOps;
  }
#endif
  return &internal::kScalarOps;
}

}  // namespace

namespace internal {

// Constant-initialised so the kernels are usable from any static
// initialiser; the startup object below upgrades to the detected table.
constinit std::atomic<const SimdOps*> g_active_ops{&kScalarOps};

}  // namespace internal

const SimdOps* DetectedOps() {
  static const SimdOps* ops = ProbeCpu();
  return ops;
}

namespace {

// Runs during static initialisation of this translation unit: installs the
// best table the CPU supports.
const struct StartupDispatch {
  StartupDispatch() {
    internal::g_active_ops.store(DetectedOps(), std::memory_order_relaxed);
  }
} g_startup_dispatch;

}  // namespace

void ForceScalar(bool on) {
  internal::g_active_ops.store(on ? &internal::kScalarOps : DetectedOps(),
                               std::memory_order_relaxed);
}

bool KernelsUseSimd() {
  return internal::g_active_ops.load(std::memory_order_relaxed) !=
         &internal::kScalarOps;
}

const char* ActiveKernelName() {
  return internal::g_active_ops.load(std::memory_order_relaxed)->name;
}

}  // namespace phtree::simd
