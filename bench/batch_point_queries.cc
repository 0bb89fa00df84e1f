// Batched point lookups and the SIMD traversal-kernel ablation (no paper
// figure — this measures the repository's own optimisation layer).
//
// Two sections land in the shared BENCH_queries.json artefact (argv[1]
// overrides the path):
//
//   * "batch_point_queries": per-key time of PhTree::FindBatch (z-sorted
//     batch, shared-prefix descent, software prefetch) vs the same keys
//     issued as a plain Find loop, on 6D CUBE at several batch sizes. The
//     batch path amortises the descent over keys that share a z-prefix, so
//     its advantage grows with the batch size.
//
//   * "simd_ablation": point- and range-query workloads run twice, once
//     with the runtime-dispatched SIMD kernels (common/simd.h) and once
//     pinned to their scalar twins (simd::ScopedForceScalar) — the measured
//     win of the vectorised window-mask checks, rank scans and box tests.
//
// Repetitions of the A/B arms are interleaved so background load drifts
// hit both arms equally; consumers compare the per-arm minima. The section
// metadata records which kernel was active so the CI gate can skip the win
// checks on scalar-only hosts or builds.
#include <functional>
#include <string>
#include <vector>

#include "benchlib/json_artifact.h"
#include "benchlib/measure.h"
#include "common/simd.h"

namespace phtree::bench {
namespace {

constexpr int kReps = 5;

/// FindBatch vs looped Find on one pre-built 6D CUBE tree: both arms walk
/// identical key sequences, grouped identically — only the lookup strategy
/// differs.
std::vector<JsonFields> RunBatchQueries() {
  std::printf("\n## 6D CUBE, FindBatch vs looped Find (50%% hit rate)\n");
  Table table({"dataset", "mode", "n", "batch", "us/key"});
  std::vector<JsonFields> rows;
  const size_t n = ScaledN(200000);
  const Dataset ds = GenerateCube(n, 6, 42);
  const auto queries = MakePointQueries(ds, ScaledN(100000), 1234);
  PhAdapter index(ds.dim);
  for (size_t i = 0; i < ds.n(); ++i) {
    index.Insert(ds.point(i), i);
  }
  std::vector<PhKey> keys;
  keys.reserve(queries.size());
  for (const auto& q : queries) {
    keys.push_back(EncodeKeyD(q));
  }
  const PhTree& tree = index.tree().tree();
  for (const size_t batch : {16u, 64u, 256u}) {
    for (int rep = 0; rep < kReps; ++rep) {
      for (const bool use_batch : {false, true}) {
        const double us = MeasureBatchQueryUs(tree, keys, batch, use_batch);
        const char* mode = use_batch ? "find_batch" : "find_loop";
        table.Cell(std::string("6D CUBE"));
        table.Cell(std::string(mode));
        table.Cell(static_cast<uint64_t>(ds.n()));
        table.Cell(static_cast<uint64_t>(batch));
        table.Cell(us);
        rows.push_back({JsonStr("dataset", "6D CUBE"), JsonStr("struct", mode),
                        JsonInt("n", ds.n()), JsonInt("batch", batch),
                        JsonNum("us_per_key", us, 4)});
      }
    }
  }
  return rows;
}

/// One workload of the SIMD ablation, measured with the dispatched kernels
/// and with the scalar twins forced (interleaved repetitions).
void RunAblationWorkload(const char* name, uint64_t n,
                         const std::function<double()>& measure, Table* table,
                         std::vector<JsonFields>* rows) {
  for (int rep = 0; rep < kReps; ++rep) {
    for (const bool use_simd : {true, false}) {
      simd::ScopedForceScalar force(!use_simd);
      const double us = measure();
      const char* mode = use_simd ? "simd" : "scalar";
      table->Cell(std::string(name));
      table->Cell(std::string(mode));
      table->Cell(n);
      table->Cell(us);
      rows->push_back({JsonStr("dataset", name), JsonStr("struct", mode),
                       JsonInt("n", n), JsonNum("us_per_op", us, 4)});
    }
  }
}

/// Each workload builds its tree ONCE and both arms query that same tree:
/// a per-arm rebuild would hand whichever arm runs first a cold allocator
/// and bias the comparison against it.
std::vector<JsonFields> RunSimdAblation() {
  std::printf("\n## SIMD kernel ablation (%s kernels vs forced scalar)\n",
              simd::ActiveKernelName());
  Table table({"dataset", "mode", "n", "us/op"});
  std::vector<JsonFields> rows;
  const auto build = [](const Dataset& ds) {
    PhAdapter index(ds.dim);
    for (size_t i = 0; i < ds.n(); ++i) {
      index.Insert(ds.point(i), i);
    }
    return index;
  };
  {
    // fig09-shaped: 6D range queries are the LhcScan / window-mask-check
    // hot loop the FindFirstStop kernel targets.
    const Dataset ds = GenerateCube(ScaledN(200000), 6, 42);
    const auto boxes = MakeVolumeQueries(ds, 100, 0.001, 7);
    PhAdapter index = build(ds);
    RunAblationWorkload(
        "6D CUBE (0.1% volume) range", ds.n(),
        [&] { return MeasureRangeQueryOnUsPerResult(index, boxes); }, &table,
        &rows);
  }
  {
    // High-k: interior nodes hold 2^14-slot hypercubes, so BHC rank scans
    // (CountOnesWords over 256-word bitmaps) and 14-wide box/overlap tests
    // dominate — the word-parallel kernels' best case.
    const Dataset ds = GenerateCube(ScaledN(100000), 14, 42);
    const auto boxes = MakeVolumeQueries(ds, 100, 0.001, 7);
    PhAdapter index = build(ds);
    RunAblationWorkload(
        "14D CUBE (0.1% volume) range", ds.n(),
        [&] { return MeasureRangeQueryOnUsPerResult(index, boxes); }, &table,
        &rows);
  }
  {
    // Paper's CLUSTER workload at high k: thin x-slabs sweep many nodes
    // per query, stressing the 14-wide window masks (each node's one
    // region test) and the LHC window walk.
    const Dataset ds = GenerateCluster(ScaledN(100000), 14, 0.5, 42);
    const auto boxes = MakeClusterQueries(ds.dim, 50, 7);
    PhAdapter index = build(ds);
    RunAblationWorkload(
        "14D CLUSTER0.5 x-slab range", ds.n(),
        [&] { return MeasureRangeQueryOnUsPerResult(index, boxes); }, &table,
        &rows);
  }
  {
    // fig08-shaped: high-k point queries hit the BHC rank scan in every
    // FindOrdinal on the way down.
    const Dataset ds = GenerateCube(ScaledN(100000), 14, 42);
    const auto queries = MakePointQueries(ds, ScaledN(100000), 1234);
    PhAdapter index = build(ds);
    RunAblationWorkload(
        "14D CUBE point", ds.n(),
        [&] { return MeasurePointQueryOnUs(index, queries); }, &table, &rows);
  }
  return rows;
}

int Main(int argc, char** argv) {
  const std::string json_path =
      argc > 1 ? argv[1] : std::string("BENCH_queries.json");
  PrintHeader("batch_point_queries", "Traversal kernels (no paper figure)",
              "Batched lookups and SIMD kernel ablation");
  const RunMetadata meta = CollectRunMetadata();
  std::printf("# %s kernel=%s\n", MetadataJson(meta).c_str(),
              simd::ActiveKernelName());
  const JsonFields kernel = {JsonStr("kernel", simd::ActiveKernelName()),
                             JsonBool("simd_active", simd::KernelsUseSimd())};
  const BenchSection batch{"FindBatch vs looped Find", kernel,
                           RunBatchQueries()};
  const BenchSection ablation{"SIMD kernels vs forced scalar", kernel,
                              RunSimdAblation()};
  if (!WriteBenchSection(json_path, "queries", "batch_point_queries", meta,
                         batch) ||
      !WriteBenchSection(json_path, "queries", "simd_ablation", meta,
                         ablation)) {
    return 1;
  }
  std::printf(
      "# wrote %s (sections batch_point_queries, simd_ablation)\n",
      json_path.c_str());
  return 0;
}

}  // namespace
}  // namespace phtree::bench

int main(int argc, char** argv) {
  return phtree::bench::Main(argc, argv);
}
