// Reproduces paper Figure 9 (a/b/c): range-query time per returned entry on
// 2D TIGER/Line (1% area), 3D CUBE (0.1% volume) and 3D CLUSTER (0.01%
// x-slabs), for the PH-tree and the two kd-trees. CB-trees are excluded
// exactly as in the paper: their range queries approach full scans
// (Sect. 4.3.3).
//
// Expected shape: PH is ~an order of magnitude faster on TIGER, ~2.5x
// faster on CUBE at large n, and on CLUSTER the kd-trees are orders of
// magnitude slower while PH gets *faster* with growing n (super-constant).
//
// Besides the human-readable tables, the run lands as the "range_queries"
// section of the shared BENCH_queries.json artefact (argv[1] overrides the
// path).
#include <functional>
#include <string>
#include <vector>

#include "benchlib/json_artifact.h"
#include "benchlib/measure.h"

namespace phtree::bench {
namespace {

void Run(const char* name, const char* figure,
         const std::vector<size_t>& sizes,
         const std::function<Dataset(size_t)>& make,
         const std::function<std::vector<QueryBox>(const Dataset&)>& queries,
         bool kd_small_only, std::vector<JsonFields>* rows) {
  std::printf("\n## %s (%s)\n", figure, name);
  Table table({"dataset", "struct", "n", "us/result"});
  for (size_t i = 0; i < sizes.size(); ++i) {
    const Dataset ds = make(sizes[i]);
    const auto boxes = queries(ds);
    const auto row = [&](const char* sname, double us) {
      table.Cell(std::string(name));
      table.Cell(std::string(sname));
      table.Cell(static_cast<uint64_t>(ds.n()));
      table.Cell(us);
      rows->push_back({JsonStr("dataset", name), JsonStr("struct", sname),
                       JsonInt("n", ds.n()), JsonNum("us_per_result", us, 4)});
    };
    row(PhAdapter::kName, MeasureRangeQueryUsPerResult<PhAdapter>(ds, boxes));
    // The paper measured kd-trees on CLUSTER only up to n = 5e6 "because of
    // the long query execution time"; we cap them at the smaller sizes too.
    if (!kd_small_only || i + 2 < sizes.size()) {
      row(Kd1Adapter::kName,
          MeasureRangeQueryUsPerResult<Kd1Adapter>(ds, boxes));
      row(Kd2Adapter::kName,
          MeasureRangeQueryUsPerResult<Kd2Adapter>(ds, boxes));
    }
  }
}

int Main(int argc, char** argv) {
  const std::string json_path =
      argc > 1 ? argv[1] : std::string("BENCH_queries.json");
  PrintHeader("fig09_range_queries", "Figure 9 (a,b,c), Sect. 4.3.3",
              "Range query time per returned entry vs n");
  const RunMetadata meta = CollectRunMetadata();
  std::printf("# %s\n", MetadataJson(meta).c_str());
  const std::vector<size_t> sizes = {ScaledN(50000), ScaledN(100000),
                                     ScaledN(200000), ScaledN(400000)};
  BenchSection section{"Fig. 9 (a,b,c), Sect. 4.3.3"};
  std::vector<JsonFields>& rows = section.rows;
  Run(
      "2D TIGER/Line (1% area)", "Fig. 9a", sizes,
      [](size_t n) { return GenerateTigerLike(n, 42); },
      [](const Dataset& ds) { return MakeVolumeQueries(ds, 200, 0.01, 7); },
      /*kd_small_only=*/false, &rows);
  Run(
      "3D CUBE (0.1% volume)", "Fig. 9b", sizes,
      [](size_t n) { return GenerateCube(n, 3, 42); },
      [](const Dataset& ds) { return MakeVolumeQueries(ds, 200, 0.001, 7); },
      /*kd_small_only=*/false, &rows);
  Run(
      "3D CLUSTER0.5 (x-slabs)", "Fig. 9c", sizes,
      [](size_t n) { return GenerateCluster(n, 3, 0.5, 42); },
      [](const Dataset& ds) { return MakeClusterQueries(ds.dim, 50, 7); },
      /*kd_small_only=*/true, &rows);
  if (!WriteBenchSection(json_path, "queries", "range_queries", meta,
                         section)) {
    return 1;
  }
  std::printf("# wrote %s (section range_queries)\n", json_path.c_str());
  return 0;
}

}  // namespace
}  // namespace phtree::bench

int main(int argc, char** argv) {
  return phtree::bench::Main(argc, argv);
}
