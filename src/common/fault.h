// Process-wide fault injection for robustness testing. Production code
// plants named fault sites (allocation choke points, VFS syscalls) via
// FaultHit(site); tests install a FaultInjector that decides which hit
// fails. With no injector installed the check is a single relaxed atomic
// load of a null pointer, and compiling with
// -DPHTREE_DISABLE_FAULT_INJECTION removes the hooks entirely.
#ifndef PHTREE_COMMON_FAULT_H_
#define PHTREE_COMMON_FAULT_H_

#include <atomic>
#include <cstdint>

namespace phtree {

/// Every distinct failure seam in the process. Allocation sites fail by
/// making the allocation return "out of memory"; VFS sites fail by making
/// the corresponding syscall return an error (the FaultyVfs picks the
/// errno).
enum class FaultSite : uint8_t {
  kArenaNodeAlloc = 0,  ///< a new node's block (Node::TryBuild)
  kWordAlloc,           ///< an edited node's block (Node::TryEdit)
  kVfsOpen,
  kVfsRead,
  kVfsWrite,
  kVfsFsync,
  kVfsClose,
  kVfsRename,
  kNumSites,
};

inline constexpr int kNumFaultSites = static_cast<int>(FaultSite::kNumSites);

const char* FaultSiteName(FaultSite site);

/// Decides which fault-site hits fail. Exactly one of three modes is armed
/// at a time:
///  - countdown: the nth future hit of one specific site fails (n >= 1);
///  - global index: the ith future hit across all sites fails (i >= 0),
///    used by sweep harnesses that probe every site index in turn;
///  - random: each hit fails with probability 1/every_n, seeded.
/// Thread-safe; all counters are atomics. `fired()` reports whether the
/// armed fault actually triggered since the last Arm*/Disarm.
class FaultInjector {
 public:
  FaultInjector() = default;

  /// Fail the `nth` (1-based) future hit of `site`.
  void ArmCountdown(FaultSite site, uint64_t nth);

  /// Fail the `index`th (0-based) future hit across all sites.
  void ArmGlobalIndex(uint64_t index);

  /// Fail each hit with probability 1/every_n (every_n == 0 disables).
  void ArmRandom(uint64_t seed, uint64_t every_n);

  /// Stop injecting; counters keep accumulating.
  void Disarm();

  /// True if the armed fault has triggered since the last Arm*/Disarm.
  bool fired() const { return fired_.load(std::memory_order_relaxed); }

  /// Total number of times any site asked (regardless of outcome).
  uint64_t hits() const { return total_hits_.load(std::memory_order_relaxed); }

  /// Number of times a hit was turned into a failure.
  uint64_t failures() const {
    return failures_.load(std::memory_order_relaxed);
  }

  uint64_t site_hits(FaultSite site) const {
    return site_hits_[static_cast<int>(site)].load(std::memory_order_relaxed);
  }

  /// Called from FaultHit(); returns true if this hit must fail.
  bool ShouldFail(FaultSite site);

  /// Temporarily ignore hits (suspension depth is per-process, matching the
  /// process-wide injector). Used by harnesses re-running an op that was
  /// made to fail.
  void Suspend() { suspend_.fetch_add(1, std::memory_order_relaxed); }
  void Resume() { suspend_.fetch_sub(1, std::memory_order_relaxed); }

 private:
  enum class Mode : uint8_t { kDisarmed, kCountdown, kGlobalIndex, kRandom };

  std::atomic<Mode> mode_{Mode::kDisarmed};
  std::atomic<uint8_t> site_{0};        // countdown mode
  std::atomic<uint64_t> remaining_{0};  // countdown: hits left before firing
  std::atomic<uint64_t> target_{0};     // global-index mode: hits left
  std::atomic<uint64_t> rng_{0};        // random mode state (SplitMix64)
  std::atomic<uint64_t> every_n_{0};
  std::atomic<bool> fired_{false};
  std::atomic<int> suspend_{0};
  std::atomic<uint64_t> total_hits_{0};
  std::atomic<uint64_t> failures_{0};
  std::atomic<uint64_t> site_hits_[kNumFaultSites] = {};
};

/// Installs `injector` as the process-wide injector (nullptr uninstalls).
/// Returns the previous injector. The caller keeps ownership and must keep
/// the object alive until uninstalled.
FaultInjector* SetFaultInjector(FaultInjector* injector);

FaultInjector* GetFaultInjector();

namespace internal {
extern std::atomic<FaultInjector*> g_fault_injector;
}  // namespace internal

#ifdef PHTREE_DISABLE_FAULT_INJECTION
inline bool FaultHit(FaultSite) { return false; }
#else
/// True if the planted fault at `site` must fail this time. The fast path
/// (no injector installed) is one relaxed load and a predictable branch.
inline bool FaultHit(FaultSite site) {
  FaultInjector* inj =
      internal::g_fault_injector.load(std::memory_order_relaxed);
  if (inj == nullptr) {
    return false;
  }
  return inj->ShouldFail(site);
}
#endif

/// RAII: suspends the installed injector (if any) for the current scope.
class FaultInjectorSuspend {
 public:
  FaultInjectorSuspend() : inj_(GetFaultInjector()) {
    if (inj_ != nullptr) {
      inj_->Suspend();
    }
  }
  ~FaultInjectorSuspend() {
    if (inj_ != nullptr) {
      inj_->Resume();
    }
  }
  FaultInjectorSuspend(const FaultInjectorSuspend&) = delete;
  FaultInjectorSuspend& operator=(const FaultInjectorSuspend&) = delete;

 private:
  FaultInjector* inj_;
};

}  // namespace phtree

#endif  // PHTREE_COMMON_FAULT_H_
