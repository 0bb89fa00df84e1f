// Runtime-dispatched SIMD kernels for the traversal hot loops. Each kernel
// has a portable scalar twin (namespace internal) and, on x86-64, vector /
// bit-manipulation variants compiled with per-function target attributes
// and selected once at startup via __builtin_cpu_supports — the same
// dispatch pattern as crc32c.cc. Callers go through the inline wrappers
// below, which load the active ops table with one relaxed atomic load, so
// the per-call overhead is a single indirect call on a batch of work.
//
// Forcing the scalar path (two mechanisms, strongest first):
//   - compile time: -DPHTREE_FORCE_SCALAR=ON (CMake option) compiles the
//     vector variants out entirely — the build is valid on any CPU;
//   - runtime:      ForceScalar(true/false) flips the table at any point
//     (process-wide) — this is what the interleaved A/B benchmarks and the
//     differential forced-scalar arm use, through ScopedForceScalar.
#ifndef PHTREE_COMMON_SIMD_H_
#define PHTREE_COMMON_SIMD_H_

#include <atomic>
#include <cstddef>
#include <cstdint>

namespace phtree::simd {

/// The dispatch table: one entry per kernel, four in all — the LHC batch
/// stop search, a word popcount, the window cursor's per-entry box test
/// and FindBatch's z-sample. All implementations of a kernel are exact
/// drop-ins for each other (verified exhaustively by simd_kernel_test);
/// only the instruction mix differs.
struct SimdOps {
  /// First index i in addrs[0, n) where addrs[i] is a "stop" for the
  /// window [mask_lower, mask_upper]: either addrs[i] > mask_upper (the
  /// sorted LHC walk is past the window) or addrs[i] is window-valid
  /// ((a | mL) == a && (a & mU) == a). Returns n when no element stops.
  /// a > mU implies a is invalid, so the caller disambiguates the two
  /// stop reasons with one comparison on the returned element.
  size_t (*find_first_stop)(const uint64_t* addrs, size_t n,
                            uint64_t mask_lower, uint64_t mask_upper);
  /// Total popcount over words[0, n).
  uint64_t (*count_ones_words)(const uint64_t* words, size_t n);
  /// lo[d] <= key[d] <= hi[d] for every d in [0, dim).
  bool (*key_in_box)(const uint64_t* key, const uint64_t* lo,
                     const uint64_t* hi, size_t dim);
  /// One-word sample of the key's z-address: the top floor(64/dim) bits of
  /// every dimension, interleaved MSB-first (level 0 of dim 0 is the
  /// sample's most significant bit). Comparing samples orders keys by the
  /// tree's top levels — FindBatch sorts batches by it instead of paying a
  /// full multi-word z-compare per comparison. 1 <= dim <= 64.
  uint64_t (*z_sample)(const uint64_t* key, uint32_t dim);
  /// Human-readable name of the selected tier ("scalar", "popcnt",
  /// "avx2") — reported by benchmarks next to their numbers.
  const char* name;
};

namespace internal {

/// Scalar twins — always available, the reference the vector variants are
/// tested against, and the table ForceScalar(true) installs.
size_t FindFirstStopScalar(const uint64_t* addrs, size_t n,
                           uint64_t mask_lower, uint64_t mask_upper);
uint64_t CountOnesWordsScalar(const uint64_t* words, size_t n);
bool KeyInBoxScalar(const uint64_t* key, const uint64_t* lo,
                    const uint64_t* hi, size_t dim);
uint64_t ZSampleScalar(const uint64_t* key, uint32_t dim);

extern const SimdOps kScalarOps;

/// The active table. Constant-initialised to the scalar table so kernels
/// are safe during static initialisation; a startup initialiser in simd.cc
/// upgrades it to the best table the CPU (and a -DPHTREE_FORCE_SCALAR
/// build) allows. Never null.
extern std::atomic<const SimdOps*> g_active_ops;

}  // namespace internal

/// The table the CPU-feature probe selects, ignoring any forcing. Equal to
/// &internal::kScalarOps when built with PHTREE_FORCE_SCALAR or when the
/// CPU lacks SSE4.2/POPCNT. Used by tests to exercise the vector variants
/// regardless of the current ForceScalar state.
const SimdOps* DetectedOps();

/// Process-wide override: true installs the scalar table, false restores
/// DetectedOps(). Not a stack — the differential runner and benchmarks
/// use ScopedForceScalar to save/restore around a region.
void ForceScalar(bool on);

/// True when the active table uses vector/bit-manipulation instructions —
/// i.e. dispatch found hardware support and nothing forced it off.
bool KernelsUseSimd();

/// Name of the active tier ("scalar", "popcnt", "avx2").
const char* ActiveKernelName();

/// RAII forcing for a region: saves the current forced/unforced state,
/// installs the requested one, restores on destruction.
class ScopedForceScalar {
 public:
  explicit ScopedForceScalar(bool on)
      : was_scalar_(internal::g_active_ops.load(std::memory_order_relaxed) ==
                    &internal::kScalarOps) {
    ForceScalar(on);
  }
  ~ScopedForceScalar() { ForceScalar(was_scalar_); }
  ScopedForceScalar(const ScopedForceScalar&) = delete;
  ScopedForceScalar& operator=(const ScopedForceScalar&) = delete;

 private:
  bool was_scalar_;
};

// Hot-path wrappers: one relaxed load of the table, one indirect call.

inline size_t FindFirstStop(const uint64_t* addrs, size_t n,
                            uint64_t mask_lower, uint64_t mask_upper) {
  return internal::g_active_ops.load(std::memory_order_relaxed)
      ->find_first_stop(addrs, n, mask_lower, mask_upper);
}

inline uint64_t CountOnesWords(const uint64_t* words, size_t n) {
  return internal::g_active_ops.load(std::memory_order_relaxed)
      ->count_ones_words(words, n);
}

inline bool KeyInBox(const uint64_t* key, const uint64_t* lo,
                     const uint64_t* hi, size_t dim) {
  return internal::g_active_ops.load(std::memory_order_relaxed)
      ->key_in_box(key, lo, hi, dim);
}

inline uint64_t ZSamplePrefix(const uint64_t* key, uint32_t dim) {
  return internal::g_active_ops.load(std::memory_order_relaxed)
      ->z_sample(key, dim);
}

/// Software prefetch of the cache line at `p` (read intent, moderate
/// temporal locality). Compiles to nothing where unsupported. Used by
/// FindBatch to pull the next key's child node while finishing the
/// current one.
inline void PrefetchRead(const void* p) {
#if defined(__GNUC__) || defined(__clang__)
  __builtin_prefetch(p, /*rw=*/0, /*locality=*/2);
#else
  (void)p;
#endif
}

}  // namespace phtree::simd

#endif  // PHTREE_COMMON_SIMD_H_
