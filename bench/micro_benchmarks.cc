// Micro-benchmarks (google-benchmark) of the PH-tree primitives: insert,
// bulk load, point query, erase, window query, kNN, plus the bit-level
// substrates the complexity analysis of Sect. 3.5/3.6 builds on.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "benchlib/json_artifact.h"
#include "benchlib/workloads.h"
#include "common/bits.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "datasets/datasets.h"
#include "phtree/builder.h"
#include "phtree/cursor.h"
#include "phtree/knn.h"
#include "phtree/phtree.h"
#include "phtree/phtree_d.h"
#include "phtree/sharded.h"

namespace phtree {
namespace {

std::vector<PhKey> RandomKeys(size_t n, uint32_t dim, uint64_t seed) {
  Rng rng(seed);
  std::vector<PhKey> keys;
  keys.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    PhKey key(dim);
    for (auto& v : key) {
      v = rng.NextU64();
    }
    keys.push_back(std::move(key));
  }
  return keys;
}

void BM_PhTreeInsert(benchmark::State& state) {
  const uint32_t dim = static_cast<uint32_t>(state.range(0));
  const auto keys = RandomKeys(100000, dim, 1);
  for (auto _ : state) {
    state.PauseTiming();
    PhTree tree(dim);
    state.ResumeTiming();
    for (const auto& key : keys) {
      tree.Insert(key, 1);
    }
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(keys.size()));
}
BENCHMARK(BM_PhTreeInsert)->Arg(2)->Arg(3)->Arg(8)->Unit(benchmark::kMillisecond);

/// BulkLoad into empty trees: the z-order builder path (builder.h). Case
/// 0: a plain tree, 1M random-order 2D keys; case 1: a plain tree, 200k 6D
/// CUBE keys; case 2: PhTreeSharded S = 8, z-prefix routing, on a
/// one-worker ThreadPool (the caller makes the second lane), 1M 2D keys.
/// The time per iteration is one whole BulkLoad. The counters split the
/// same build, timed once more phase by phase on the calling thread:
/// sort_ms is ZOrderPermutation over the gathered flat keys, build_ms
/// BuildFromRows over the sorted rows (both summed over the shards in
/// case 2, where two lanes share them); the rest of an iteration is the
/// gather (and in case 2 the partition) pass.
void BM_BulkLoad(benchmark::State& state) {
  const int which = static_cast<int>(state.range(0));
  const uint32_t dim = which == 1 ? 6 : 2;
  std::vector<PhEntry> entries;
  if (which == 1) {
    const Dataset ds = GenerateCube(200000, 6, 3);
    for (size_t i = 0; i < ds.n(); ++i) {
      entries.push_back(PhEntry{EncodeKeyD(ds.point(i)), i});
    }
  } else {
    for (PhKey& key : RandomKeys(1000000, 2, 4)) {
      entries.push_back(PhEntry{std::move(key), entries.size()});
    }
  }
  ThreadPool pool(1);
  constexpr uint32_t kShards = 8;
  for (auto _ : state) {
    if (which == 2) {
      PhTreeSharded tree(dim, kShards, ShardRouting::kZPrefix, PhTreeConfig{},
                         &pool);
      benchmark::DoNotOptimize(tree.BulkLoad(entries));
    } else {
      PhTree tree(dim);
      benchmark::DoNotOptimize(tree.BulkLoad(entries));
    }
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(entries.size()));

  // The sort / build split.
  const PhTreeSharded router(dim, which == 2 ? kShards : 1);
  std::vector<std::vector<uint64_t>> keys(router.num_shards());
  std::vector<std::vector<uint64_t>> values(router.num_shards());
  for (const PhEntry& e : entries) {
    const uint32_t s = router.ShardOf(e.key);
    keys[s].insert(keys[s].end(), e.key.begin(), e.key.end());
    values[s].push_back(e.value);
  }
  using Clock = std::chrono::steady_clock;
  double sort_s = 0;
  double build_s = 0;
  for (uint32_t s = 0; s < router.num_shards(); ++s) {
    const auto t0 = Clock::now();
    const std::vector<size_t> order = ZOrderPermutation(keys[s], dim);
    const auto t1 = Clock::now();
    PhTree tree(dim);
    benchmark::DoNotOptimize(BuildFromRows(&tree, keys[s], values[s], order));
    const auto t2 = Clock::now();
    sort_s += std::chrono::duration<double>(t1 - t0).count();
    build_s += std::chrono::duration<double>(t2 - t1).count();
  }
  state.counters["sort_ms"] = sort_s * 1e3;
  state.counters["build_ms"] = build_s * 1e3;
  state.SetLabel(which == 0   ? "plain 1M 2D"
                 : which == 1 ? "plain 200k 6D CUBE"
                              : "S=8 z-prefix 1M 2D, ThreadPool(1)");
}
BENCHMARK(BM_BulkLoad)->Arg(0)->Arg(1)->Arg(2)->Unit(benchmark::kMillisecond);

void BM_PhTreeFind(benchmark::State& state) {
  const uint32_t dim = static_cast<uint32_t>(state.range(0));
  const auto keys = RandomKeys(100000, dim, 1);
  PhTree tree(dim);
  for (const auto& key : keys) {
    tree.Insert(key, 1);
  }
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(tree.Contains(keys[i]));
    i = (i + 7919) % keys.size();
  }
}
BENCHMARK(BM_PhTreeFind)->Arg(2)->Arg(3)->Arg(8);

void BM_PhTreeErase(benchmark::State& state) {
  const uint32_t dim = static_cast<uint32_t>(state.range(0));
  const auto keys = RandomKeys(100000, dim, 1);
  for (auto _ : state) {
    state.PauseTiming();
    PhTree tree(dim);
    for (const auto& key : keys) {
      tree.Insert(key, 1);
    }
    state.ResumeTiming();
    for (const auto& key : keys) {
      tree.Erase(key);
    }
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(keys.size()));
}
BENCHMARK(BM_PhTreeErase)->Arg(2)->Arg(3)->Unit(benchmark::kMillisecond);

/// In-node Update moves, the moving-objects fast path: each of 100k random
/// 2D keys moves to the key with its lowest bit flipped (and back on the
/// next iteration), so every move stays in its node and rewrites that one
/// node. Arg 0: a plain tree; arg 1: an MVCC tree (one writer, no readers;
/// replaced nodes are retired and reclaimed).
void BM_PhTreeUpdate(benchmark::State& state) {
  const bool mvcc = state.range(0) != 0;
  auto keys = RandomKeys(100000, 2, 8);
  EpochManager epochs;
  PhTree tree(2);
  if (mvcc) {
    tree.EnableMvcc(&epochs);
  }
  for (const auto& key : keys) {
    tree.Insert(key, 1);
  }
  for (auto _ : state) {
    for (auto& key : keys) {
      const uint64_t to[2] = {key[0] ^ 1, key[1]};
      benchmark::DoNotOptimize(tree.Update(key, to));
      key[0] = to[0];
    }
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(keys.size()));
}
BENCHMARK(BM_PhTreeUpdate)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

/// One kNN workload: a tree, the same points as one flat double array, and
/// encoded centres. Built once per binary (KnnSetFor), so a short
/// --benchmark_min_time run stays short.
struct KnnSet {
  static constexpr size_t kCenters = 1024;

  KnnSet(Dataset points, bool near_points, double jitter, uint64_t seed)
      : ds(std::move(points)), tree(ds.dim) {
    for (size_t i = 0; i < ds.n(); ++i) {
      tree.Insert(ds.point(i), i);
    }
    Rng rng(seed);
    for (size_t q = 0; q < kCenters; ++q) {
      const auto p = ds.point(rng.NextBounded(ds.n()));
      for (uint32_t d = 0; d < ds.dim; ++d) {
        const double c = near_points ? p[d] + rng.NextDouble(-jitter, jitter)
                                     : rng.NextDouble();
        centers.push_back(c);
        encoded.push_back(SortableDoubleBits(c));
      }
    }
  }

  std::span<const uint64_t> Center(size_t q) const {
    return {encoded.data() + (q % kCenters) * ds.dim, ds.dim};
  }

  Dataset ds;  // ds.coords: the points row-major, the scan's flat array
  PhTreeD tree;
  std::vector<double> centers;   // row-major, decoded
  std::vector<uint64_t> encoded;  // row-major, as the tree stores them
};

/// The kNN trees by arm. 0: CUBE 3D, 10^5 points, uniform centres. 1:
/// TIGER-like 2D, 10^6 points, centres within +-0.005 degrees of a stored
/// point (tiger_serve's kNN). 2-5: CUBE, 2*10^4 points at k = 2, 3, 6 and
/// 10, centres within +-10^-3 of a stored point, shared with BM_KnnScan.
const KnnSet& KnnSetFor(int64_t arm) {
  static std::unique_ptr<KnnSet> sets[6];
  static constexpr uint32_t kScanDims[4] = {2, 3, 6, 10};
  std::unique_ptr<KnnSet>& set = sets[arm];
  if (set == nullptr) {
    if (arm == 0) {
      set = std::make_unique<KnnSet>(GenerateCube(100000, 3, 3), false, 0, 5);
    } else if (arm == 1) {
      set = std::make_unique<KnnSet>(GenerateTigerLike(1000000, 6), true,
                                     0.005, 7);
    } else {
      set = std::make_unique<KnnSet>(
          GenerateCube(20000, kScanDims[arm - 2], 8 + arm), true, 1e-3, 9);
    }
  }
  return *set;
}

/// kNN(n) through the tree: args are (arm, n).
void BM_Knn(benchmark::State& state) {
  const KnnSet& set = KnnSetFor(state.range(0));
  const size_t n = static_cast<size_t>(state.range(1));
  size_t q = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        KnnSearch(set.tree.tree(), set.Center(q++), n, KnnMetric::kL2Double));
  }
}
BENCHMARK(BM_Knn)
    ->Args({0, 1})
    ->Args({0, 10})
    ->Args({0, 100})
    ->Args({1, 10})
    ->Args({2, 10})
    ->Args({3, 10})
    ->Args({4, 10})
    ->Args({5, 10});

/// One window workload: row-major encoded boxes over one of KnnSetFor's
/// trees.
struct WindowSet {
  static constexpr size_t kBoxes = 1024;

  const PhTree* tree = nullptr;
  uint32_t dim = 0;
  std::vector<uint64_t> lo;  // row-major, encoded
  std::vector<uint64_t> hi;

  void Add(std::span<const double> box_lo, std::span<const double> box_hi) {
    for (uint32_t d = 0; d < dim; ++d) {
      lo.push_back(SortableDoubleBits(box_lo[d]));
      hi.push_back(SortableDoubleBits(box_hi[d]));
    }
  }
  std::span<const uint64_t> Lo(size_t q) const {
    return {lo.data() + (q % kBoxes) * dim, dim};
  }
  std::span<const uint64_t> Hi(size_t q) const {
    return {hi.data() + (q % kBoxes) * dim, dim};
  }
};

/// The window arms, on KnnSetFor's trees. 0: CUBE 3D, 10^5 points, cubes
/// of side 0.1. 1: TIGER-like 2D, 10^6 points, +-0.01 degrees around a
/// stored point (tiger_serve's windows). 2: CUBE 6D, 2*10^4 points, 0.1%
/// MakeVolumeQueries boxes (cube6d_window's windows).
const WindowSet& WindowSetFor(int64_t arm) {
  static std::unique_ptr<WindowSet> sets[3];
  static constexpr int64_t kTreeArm[3] = {0, 1, 4};
  std::unique_ptr<WindowSet>& set = sets[arm];
  if (set == nullptr) {
    const KnnSet& source = KnnSetFor(kTreeArm[arm]);
    const Dataset& ds = source.ds;
    set = std::make_unique<WindowSet>();
    set->tree = &source.tree.tree();
    set->dim = ds.dim;
    if (arm == 2) {
      for (const auto& box : bench::MakeVolumeQueries(ds, WindowSet::kBoxes,
                                                      0.001, 13)) {
        set->Add(box.lo, box.hi);
      }
      return *set;
    }
    Rng rng(4);
    for (size_t q = 0; q < WindowSet::kBoxes; ++q) {
      double lo[3];
      double hi[3];
      if (arm == 0) {
        for (uint32_t d = 0; d < 3; ++d) {
          lo[d] = rng.NextDouble(0.0, 0.9);
          hi[d] = lo[d] + 0.1;
        }
      } else {
        const auto c = ds.point(rng.NextBounded(ds.n()));
        for (uint32_t d = 0; d < 2; ++d) {
          lo[d] = c[d] - 0.01;
          hi[d] = c[d] + 0.01;
        }
      }
      set->Add(lo, hi);
    }
  }
  return *set;
}

/// Window scans: args are (arm, page). Page 0 visits every result through
/// the visitor QueryWindow; page 8 drains the window in 8-entry
/// QueryWindowPage pages, each resumed from the last one's token.
void BM_WindowQuery(benchmark::State& state) {
  const WindowSet& set = WindowSetFor(state.range(0));
  const size_t page = static_cast<size_t>(state.range(1));
  size_t q = 0;
  uint64_t results = 0;
  for (auto _ : state) {
    const auto lo = set.Lo(q);
    const auto hi = set.Hi(q++);
    uint64_t sum = 0;
    if (page == 0) {
      set.tree->QueryWindow(lo, hi, [&](const PhKey&, uint64_t v) {
        sum += v;
        ++results;
      });
    } else {
      WindowPage p = set.tree->QueryWindowPage(lo, hi, page);
      for (;;) {
        for (const auto& entry : p.entries) {
          sum += entry.second;
        }
        results += p.entries.size();
        if (!p.more) {
          break;
        }
        p = set.tree->QueryWindowPage(lo, hi, page, p.token);
      }
    }
    benchmark::DoNotOptimize(sum);
  }
  state.counters["results"] = benchmark::Counter(
      static_cast<double>(results), benchmark::Counter::kAvgIterations);
}
BENCHMARK(BM_WindowQuery)
    ->Args({0, 0})
    ->Args({0, 8})
    ->Args({1, 0})
    ->Args({1, 8})
    ->Args({2, 0})
    ->Args({2, 8});

/// The baseline a kNN must beat: every squared distance over the flat
/// point array (the tree's arithmetic: per-axis difference of the decoded
/// doubles, squared and summed in axis order), nth_element, then a sort of
/// the n best. Args are (arm, n), on BM_Knn's trees' points and centres.
void BM_KnnScan(benchmark::State& state) {
  const KnnSet& set = KnnSetFor(state.range(0));
  const size_t n = static_cast<size_t>(state.range(1));
  const uint32_t dim = set.ds.dim;
  const double* points = set.ds.coords.data();
  std::vector<std::pair<double, uint32_t>> dist(set.ds.n());
  size_t q = 0;
  for (auto _ : state) {
    const double* c = set.centers.data() + (q++ % KnnSet::kCenters) * dim;
    for (size_t i = 0; i < dist.size(); ++i) {
      const double* p = points + i * dim;
      double sum = 0;
      for (uint32_t d = 0; d < dim; ++d) {
        const double delta = c[d] - p[d];
        sum += delta * delta;
      }
      dist[i] = {sum, static_cast<uint32_t>(i)};
    }
    std::nth_element(dist.begin(), dist.begin() + (n - 1), dist.end());
    std::sort(dist.begin(), dist.begin() + n);
    benchmark::DoNotOptimize(dist.data());
  }
}
BENCHMARK(BM_KnnScan)
    ->Args({2, 10})
    ->Args({3, 10})
    ->Args({4, 10})
    ->Args({5, 10});

// ---- Arena hot paths ----------------------------------------------------
// The slab arena's freelist recycling and O(slabs) Clear(). The arena-vs-
// global-new comparison these rows once ran is recorded in EXPERIMENTS.md.

void BM_ArenaChurn(benchmark::State& state) {
  // Insert/erase churn: every erase returns node blocks that the
  // following inserts immediately reuse — the freelist hot path.
  const uint32_t dim = static_cast<uint32_t>(state.range(0));
  const auto keys = RandomKeys(50000, dim, 2);
  PhTree tree(dim);
  for (const auto& key : keys) {
    tree.Insert(key, 1);
  }
  const size_t half = keys.size() / 2;
  for (auto _ : state) {
    for (size_t i = 0; i < half; ++i) {
      tree.Erase(keys[i]);
    }
    for (size_t i = 0; i < half; ++i) {
      tree.Insert(keys[i], 1);
    }
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(2 * half));
}
BENCHMARK(BM_ArenaChurn)
    ->Arg(3)
    ->Arg(8)
    ->Arg(10)
    ->Unit(benchmark::kMillisecond);

void BM_ArenaClear(benchmark::State& state) {
  // Clear() latency: an O(slabs) arena reset, no tree walk. Iterations are
  // pinned because each one pays an untimed 50k-entry refill; letting the
  // harness chase min_time on a microsecond-scale timed section would
  // schedule unbounded refill work.
  const uint32_t dim = 3;
  const auto keys = RandomKeys(50000, dim, 3);
  PhTree tree(dim);
  for (auto _ : state) {
    state.PauseTiming();
    for (const auto& key : keys) {
      tree.Insert(key, 1);
    }
    state.ResumeTiming();
    tree.Clear();
  }
}
BENCHMARK(BM_ArenaClear)->Iterations(30)->Unit(benchmark::kMicrosecond);

void BM_SortableDoubleBits(benchmark::State& state) {
  Rng rng(6);
  double v = rng.NextDouble();
  for (auto _ : state) {
    benchmark::DoNotOptimize(SortableDoubleBits(v));
    v += 1e-9;
  }
}
BENCHMARK(BM_SortableDoubleBits);

void BM_ZOrderInterleave(benchmark::State& state) {
  const uint32_t dim = static_cast<uint32_t>(state.range(0));
  Rng rng(7);
  std::vector<uint64_t> key(dim), z(dim);
  for (auto& v : key) {
    v = rng.NextU64();
  }
  for (auto _ : state) {
    InterleaveZOrder(key, z);
    benchmark::DoNotOptimize(z.data());
  }
}
BENCHMARK(BM_ZOrderInterleave)->Arg(2)->Arg(8)->Arg(16);

}  // namespace
}  // namespace phtree

// Custom main (instead of benchmark_main) so run metadata lands in the
// benchmark context: `--benchmark_format=json` artefacts then carry
// cores/build/sha/scale/thp and stay comparable across machines and revisions.
int main(int argc, char** argv) {
  const phtree::bench::RunMetadata meta = phtree::bench::CollectRunMetadata();
  benchmark::AddCustomContext("cores", std::to_string(meta.cores));
  benchmark::AddCustomContext("build_type", meta.build_type);
  benchmark::AddCustomContext("git_sha", meta.git_sha);
  benchmark::AddCustomContext("bench_scale", std::to_string(meta.bench_scale));
  benchmark::AddCustomContext("thp", meta.thp);
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
