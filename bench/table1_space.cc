// Reproduces paper Table 1: bytes per entry for TIGER/Line, CUBE and
// CLUSTER across PH, KD1, KD2, CB1, CB2, double[] and object[].
//
// Expected shape (paper, n >= 5e6, 64-bit entries):
//   TIGER: PH 68 < CB2 61?.. (PH ~ object[] territory), KD ~87-95
//   CUBE:  PH 46 ~= object[] 44, KD 95-103, CB 69-88
//   CLUSTER: PH 43-55, rest as CUBE.
// PH must land well below the pointer-based kd-tree and crit-bit trees and
// near the object[] baseline. (Our KD2 is array-backed and therefore more
// compact than the paper's Java KD2; see EXPERIMENTS.md.)
//
// Besides the human-readable table, the run lands as the "table1" section
// of the shared BENCH_space.json artefact (argv[1] overrides the path),
// validated by tools/check_bench.py in CI.
#include <functional>
#include <string>
#include <vector>

#include "baseline/array_store.h"
#include "benchlib/json_artifact.h"
#include "benchlib/measure.h"

namespace phtree::bench {
namespace {

void Run(const char* name, const Dataset& ds, std::vector<JsonFields>* rows) {
  std::printf("\n## %s, n=%zu\n", name, ds.n());
  Table table({"struct", "bytes/entry"});
  const auto row = [&](const char* sname, uint64_t bytes, size_t entries) {
    const double bpe =
        static_cast<double>(bytes) / static_cast<double>(entries);
    table.Cell(std::string(sname));
    table.Cell(bpe);
    rows->push_back({JsonStr("dataset", name), JsonStr("struct", sname),
                     JsonInt("n", entries),
                     JsonNum("bytes_per_entry", bpe, 4)});
  };
  // The PH rows consume the arena's measured allocator state (see
  // PhTreeStats::arena_live_bytes): memory_bytes sums the granted slab
  // blocks, not a malloc-overhead model, so these columns are measured.
  PhTreeStats ph_stats;
  PhTreeStats ph_set_stats;
  {
    PhAdapter index(ds.dim);
    for (size_t i = 0; i < ds.n(); ++i) {
      index.Insert(ds.point(i), i);
    }
    ph_stats = index.tree().ComputeStats();
    row("PH", ph_stats.memory_bytes, index.size());
  }
  {
    // Key-only mode: the configuration the paper's own trees used (points
    // without payloads), directly comparable to its Table 1 numbers.
    PhSetAdapter index(ds.dim);
    for (size_t i = 0; i < ds.n(); ++i) {
      index.Insert(ds.point(i), i);
    }
    ph_set_stats = index.tree().ComputeStats();
    row("PH(set)", ph_set_stats.memory_bytes, index.size());
  }
  {
    const auto r = MeasureLoad<Kd1Adapter>(ds);
    row("KD1", r.memory_bytes, r.unique_entries);
  }
  {
    const auto r = MeasureLoad<Kd2Adapter>(ds);
    row("KD2", r.memory_bytes, r.unique_entries);
  }
  {
    const auto r = MeasureLoad<Cb1Adapter>(ds);
    row("CB1", r.memory_bytes, r.unique_entries);
  }
  {
    const auto r = MeasureLoad<Cb2Adapter>(ds);
    row("CB2", r.memory_bytes, r.unique_entries);
  }
  {
    FlatArrayStore flat(ds.dim);
    ObjectArrayStore obj(ds.dim);
    for (size_t i = 0; i < ds.n(); ++i) {
      flat.Add(ds.point(i));
      obj.Add(ds.point(i));
    }
    row("double[]", flat.MemoryBytes(), flat.size());
    row("object[]", obj.MemoryBytes(), obj.size());
  }
  const auto arena_note = [](const char* sname, const PhTreeStats& s) {
    std::printf("# %s arena (measured): live=%llu slab=%llu freelist=%llu\n",
                sname, static_cast<unsigned long long>(s.arena_live_bytes),
                static_cast<unsigned long long>(s.arena_slab_bytes),
                static_cast<unsigned long long>(s.arena_freelist_bytes));
  };
  arena_note("PH", ph_stats);
  arena_note("PH(set)", ph_set_stats);
}

int Main(int argc, char** argv) {
  const std::string json_path =
      argc > 1 ? argv[1] : std::string("BENCH_space.json");
  PrintHeader("table1_space", "Table 1, Sect. 4.3.5",
              "Bytes per 64-bit entry per structure and dataset");
  const RunMetadata meta = CollectRunMetadata();
  std::printf("# %s\n", MetadataJson(meta).c_str());
  const size_t n = ScaledN(500000);
  BenchSection section{"Table 1, Sect. 4.3.5"};
  std::vector<JsonFields>& rows = section.rows;
  {
    const Dataset ds = GenerateTigerLike(n, 42);
    Run("2D TIGER/Line", ds, &rows);
  }
  {
    const Dataset ds = GenerateCube(n, 3, 42);
    Run("3D CUBE", ds, &rows);
  }
  {
    const Dataset ds = GenerateCluster(n, 3, 0.5, 42);
    Run("3D CLUSTER0.5", ds, &rows);
  }
  if (!WriteBenchSection(json_path, "space", "table1", meta, section)) {
    return 1;
  }
  std::printf("# wrote %s (section table1)\n", json_path.c_str());
  return 0;
}

}  // namespace
}  // namespace phtree::bench

int main(int argc, char** argv) {
  return phtree::bench::Main(argc, argv);
}
