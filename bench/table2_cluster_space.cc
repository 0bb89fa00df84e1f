// Reproduces paper Table 2: PH-tree bytes per entry for the CLUSTER0.4 and
// CLUSTER0.5 datasets at k=3 for growing n.
//
// Expected shape: CLUSTER0.5 starts noticeably above CLUSTER0.4 (the
// IEEE-exponent boundary at 0.5 splits the tree high up, Sect. 4.3.6) and
// the two converge for large n as prefix sharing catches up.
//
// Besides the human-readable table, the run lands as the "table2" section
// of the shared BENCH_space.json artefact (argv[1] overrides the path),
// validated by tools/check_bench.py in CI.
#include <string>
#include <vector>

#include "benchlib/json_artifact.h"
#include "benchlib/measure.h"

namespace phtree::bench {
namespace {

int Main(int argc, char** argv) {
  const std::string json_path =
      argc > 1 ? argv[1] : std::string("BENCH_space.json");
  PrintHeader("table2_cluster_space", "Table 2, Sect. 4.3.6",
              "PH bytes/entry for CLUSTER0.4 vs CLUSTER0.5, k=3, growing n");
  const RunMetadata meta = CollectRunMetadata();
  std::printf("# %s\n", MetadataJson(meta).c_str());
  // Paper: n in {1,5,10,15,25,50} million; scaled to 1/50 by default.
  const std::vector<size_t> sizes = {
      ScaledN(20000),  ScaledN(100000), ScaledN(200000),
      ScaledN(300000), ScaledN(500000), ScaledN(1000000)};
  Table table({"n", "CL0.4 B/e", "CL0.5 B/e"});
  BenchSection section{"Table 2, Sect. 4.3.6"};
  const auto row = [&](const char* cluster, uint64_t entries, double bpe) {
    section.rows.push_back({JsonStr("dataset", cluster),
                            JsonStr("struct", "PH"), JsonInt("n", entries),
                            JsonNum("bytes_per_entry", bpe, 4)});
  };
  for (const size_t n : sizes) {
    const Dataset d04 = GenerateCluster(n, 3, 0.4, 42);
    const Dataset d05 = GenerateCluster(n, 3, 0.5, 42);
    const auto r04 = MeasureLoad<PhAdapter>(d04);
    const auto r05 = MeasureLoad<PhAdapter>(d05);
    const double b04 = static_cast<double>(r04.memory_bytes) /
                       static_cast<double>(r04.unique_entries);
    const double b05 = static_cast<double>(r05.memory_bytes) /
                       static_cast<double>(r05.unique_entries);
    table.Cell(static_cast<uint64_t>(n));
    table.Cell(b04);
    table.Cell(b05);
    row("3D CLUSTER0.4", r04.unique_entries, b04);
    row("3D CLUSTER0.5", r05.unique_entries, b05);
  }
  if (!WriteBenchSection(json_path, "space", "table2", meta, section)) {
    return 1;
  }
  std::printf("# wrote %s (section table2)\n", json_path.c_str());
  return 0;
}

}  // namespace
}  // namespace phtree::bench

int main(int argc, char** argv) {
  return phtree::bench::Main(argc, argv);
}
