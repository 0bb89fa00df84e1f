// Shared types of phbench: run options, per-client op
// statistics, the correctness checker, the workload interface and the
// input the per-layer probes run on. phbench.cc holds main(), workloads.cc
// the four workloads, probes.cc the per-layer probes and the layer ladder.
#ifndef PHBENCH_PHBENCH_H_
#define PHBENCH_PHBENCH_H_

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/rng.h"
#include "histogram.h"
#include "oracle.h"
#include "phtree/knn.h"
#include "phtree/phtree.h"
#include "phtree/sharded.h"
#include "trace.h"

namespace phbench {

struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Multiplies every input size; 1 is the benchmark, the smoke test runs
  /// at 0.01.
  double scale = 1.0;
};

/// An independent stream of the run's seed: inputs drawn for different
/// purposes never share random numbers.
inline uint64_t SubSeed(uint64_t seed, uint64_t stream) {
  uint64_t s = seed * 0x9e3779b97f4a7c15ULL + stream;
  return phtree::SplitMix64(s);
}

/// Order-dependent 64-bit hash step for result digests.
inline uint64_t Mix(uint64_t h, uint64_t v) {
  uint64_t s = h ^ (v + 0x632be59bd9b4e019ULL + (h << 6));
  return phtree::SplitMix64(s);
}

enum class OpKind : uint8_t {
  kFind,
  kFindBatch,
  kWindow,
  kWindowPaged,
  kKnn,
  kUpdate,
  kInsert,
  kErase,
  kExpire,
  kCheckpoint,
};
inline constexpr size_t kOpKinds = 10;

/// Span and report name of an op kind (a string literal).
const char* OpName(OpKind kind);

/// Each client cuts its timed phase into slices of this length, counted
/// from the start of the phase, so slice i of every client covers the same
/// wall-clock interval.
inline constexpr std::chrono::milliseconds kSlice{250};
/// How often a client times the canary (CanaryNs) between its ops.
inline constexpr std::chrono::milliseconds kCanaryEvery{10};
/// The canary time of an unloaded core of the reference host (a 4-vCPU
/// Xeon VM). Latencies in a slice are scaled by this over the slice's
/// median canary: the end-to-end metrics read as times on a core running
/// at the reference clock, whatever clock the host granted while the slice
/// ran.
inline constexpr double kReferenceCanaryNs = 40000;

/// One client's ops in one slice of a timed phase.
struct Slice {
  LatencyHistogram latency;
  std::vector<uint64_t> canary_ns;
};

/// One closed-loop client's record of a timed phase.
class ClientStats {
 public:
  /// `origin` is the start of the phase (slice 0 starts there).
  explicit ClientStats(Clock::time_point origin = Clock::now())
      : origin_(origin), last_canary_(origin) {}

  /// Runs `call` as one timed op and returns its result. The span makes
  /// the op visible in a traced run.
  template <typename F>
  auto Timed(OpKind kind, uint64_t op_id, F&& call);

  Clock::time_point last_end() const { return last_end_; }
  void AddFailure() { ++failed_; }
  void AddWindowResults(uint64_t n) {
    ++windows_;
    window_results_ += n;
  }

  /// Adds `other`'s whole-phase totals (not its slices).
  void Merge(const ClientStats& other);

  const LatencyHistogram& all() const { return all_; }
  const LatencyHistogram& kind(OpKind k) const {
    return by_kind_[static_cast<size_t>(k)];
  }
  const std::vector<Slice>& slices() const { return slices_; }
  uint64_t ops() const { return all_.count(); }
  uint64_t failed() const { return failed_; }
  uint64_t windows() const { return windows_; }
  uint64_t window_results() const { return window_results_; }

 private:
  Slice& SliceAt(Clock::time_point t);

  Clock::time_point origin_;
  Clock::time_point last_canary_;
  Clock::time_point last_end_{};
  LatencyHistogram all_;
  LatencyHistogram by_kind_[kOpKinds];
  std::vector<Slice> slices_;
  uint64_t failed_ = 0;
  uint64_t windows_ = 0;
  uint64_t window_results_ = 0;
};

/// A timed phase: every client's stats plus process resource usage.
struct PhaseStats {
  std::vector<ClientStats> clients;
  double wall_s = 0;
  double cpu_s = 0;
  uint64_t vol_ctx_switches = 0;
  uint64_t minor_faults = 0;

  /// Whole-phase totals of all clients, unscaled.
  ClientStats Merged() const;
};

/// The end-to-end view of a timed phase. For every complete slice the
/// clients' latencies are scaled to the reference clock and merged; the
/// metrics are the medians over the slices of each slice's throughput (the
/// sum over clients of ops per busy second) and latency percentiles. The
/// host's other tenants change the core clock and the shared caches from
/// second to second; scaling removes the clock part and the median over
/// slices the bursts, so runs at different times agree.
struct SteadyStats {
  double ops_per_s = 0;
  double p50_us = 0;
  double p99_us = 0;
  size_t slices = 0;
  double canary_ns = 0;  ///< median canary time over the phase
};
SteadyStats Steady(const PhaseStats& ps);

/// Collects correctness failures; keeps the first few messages.
class Checker {
 public:
  void Fail(const std::string& what);
  void Expect(bool ok, const std::string& what) {
    if (!ok) {
      Fail(what);
    }
  }
  bool ok() const { return failures_ == 0; }
  const std::vector<std::string>& messages() const { return messages_; }

 private:
  uint64_t failures_ = 0;
  std::vector<std::string> messages_;
};

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

/// What the per-layer probes run on: the workload's live index (a plain
/// PhTree, quiescent) and samples of its keys and queries, all flat
/// row-major arrays of encoded keys.
struct ProbeInput {
  uint32_t dim = 0;
  phtree::KnnMetric metric = phtree::KnnMetric::kL2Double;
  /// Routing of the sharded ladder rungs: kZPrefix for keys spread over
  /// the full integer range, kHash for encoded doubles (whose shared top
  /// bits would put every key in one z-prefix shard).
  phtree::ShardRouting routing = phtree::ShardRouting::kHash;
  const phtree::PhTree* tree = nullptr;
  std::vector<uint64_t> hits;
  std::vector<uint64_t> misses;
  std::vector<uint64_t> window_lo;
  std::vector<uint64_t> window_hi;
  std::vector<uint64_t> knn_centers;
  /// The layer ladder's op stream: insert every ladder key, relocate key
  /// move_object[i] to move_to[i] in order, erase every key.
  std::vector<uint64_t> ladder_keys;
  std::vector<uint32_t> move_object;
  std::vector<uint64_t> move_to;
};

class Workload {
 public:
  virtual ~Workload() = default;

  /// Number of closed-loop clients in a timed phase.
  virtual int clients() const = 0;
  /// Draws every input from the seed (timed as bench.gen_s).
  virtual void Generate() = 0;
  /// Builds a fresh index (timed as setup_s; called several
  /// times, the last build is the one measured).
  virtual void Setup() = 0;
  /// One timed phase of about `seconds`. May be called more than once; a
  /// later phase continues where the previous one stopped.
  virtual void Run(double seconds, PhaseStats* stats) = 0;
  /// Checks every answer recorded so far and the final index content.
  virtual void Verify(Checker* check) = 0;
  /// Structure bytes per stored entry of the live index.
  virtual double BytesPerEntry() = 0;
  /// Samples for the per-layer probes. May build a plain PhTree copy of
  /// the live content, owned by the workload.
  virtual ProbeInput MakeProbeInput() = 0;
};

std::unique_ptr<Workload> MakeWorkload(const RunOptions& options);
const std::vector<std::string>& WorkloadNames();

/// Runs every per-layer probe and the layer ladder on `in`.
void RunProbes(const ProbeInput& in, std::vector<Metric>* out, Checker* check);

/// Neighbours per kNN query, in every workload and probe.
inline constexpr size_t kKnnK = 10;
/// Entries per QueryWindowPage page, in every workload and probe.
inline constexpr size_t kPageEntries = 8;

/// The visitor-form window query, reduced to its digest (no result is
/// materialised).
template <typename Index>
WindowDigest VisitWindow(const Index& index, std::span<const uint64_t> lo,
                         std::span<const uint64_t> hi) {
  WindowDigest w;
  index.QueryWindow(lo, hi, [&w](const phtree::PhKey&, uint64_t v) {
    ++w.count;
    w.value_sum += v;
  });
  return w;
}

/// The same window drained through QueryWindowPage, kPageEntries at a time.
WindowDigest DrainWindow(const phtree::PhTree& tree,
                         std::span<const uint64_t> lo,
                         std::span<const uint64_t> hi);

template <typename T>
double Median(std::vector<T> v) {
  if (v.empty()) {
    return 0;
  }
  std::sort(v.begin(), v.end());
  return static_cast<double>(v[v.size() / 2]);
}

/// Row `i` of a flat row-major array of `dim`-word keys.
inline std::span<const uint64_t> Row(const std::vector<uint64_t>& flat,
                                     size_t i, uint32_t dim) {
  return {flat.data() + i * dim, dim};
}

template <typename F>
auto ClientStats::Timed(OpKind kind, uint64_t op_id, F&& call) {
  const Clock::time_point t0 = Clock::now();
  auto result = [&] {
    trace::Span span(OpName(kind), op_id);
    return call();
  }();
  const Clock::time_point t1 = Clock::now();
  const uint64_t ns = SampleNs(t0, t1);
  all_.Record(ns);
  by_kind_[static_cast<size_t>(kind)].Record(ns);
  last_end_ = t1;
  Slice& slice = SliceAt(t1);
  slice.latency.Record(ns);
  if (t1 - last_canary_ >= kCanaryEvery) {
    slice.canary_ns.push_back(CanaryNs());
    last_canary_ = Clock::now();
  }
  return result;
}

}  // namespace phbench

#endif  // PHBENCH_PHBENCH_H_
