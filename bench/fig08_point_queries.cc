// Reproduces paper Figure 8 (a/b/c): average point-query time on 2D
// TIGER/Line, 3D CUBE and 3D CLUSTER for growing n. Queries have a 50%
// chance of hitting an existing point (Sect. 4.3.2).
//
// Expected shape: the PH-tree is consistently fastest (on TIGER by ~10x,
// hence the paper's extra "PH*10" series) and nearly flat in n; kd-trees
// degrade with n; CB-trees sit between.
//
// Besides the human-readable table, the run lands as the "point_queries"
// section of the shared BENCH_queries.json artefact (argv[1] overrides the
// path).
#include <functional>
#include <string>
#include <vector>

#include "benchlib/json_artifact.h"
#include "benchlib/measure.h"

namespace phtree::bench {
namespace {

void RunDataset(const char* name, const char* figure,
                const std::vector<size_t>& sizes,
                const std::function<Dataset(size_t)>& make,
                std::vector<JsonFields>* rows) {
  std::printf("\n## %s (%s)\n", figure, name);
  Table table({"dataset", "struct", "n", "us/query"});
  const size_t n_queries = ScaledN(100000);
  for (const size_t n : sizes) {
    const Dataset ds = make(n);
    const auto queries = MakePointQueries(ds, n_queries, 1234);
    const auto row = [&](const char* sname, double us) {
      table.Cell(std::string(name));
      table.Cell(std::string(sname));
      table.Cell(static_cast<uint64_t>(ds.n()));
      table.Cell(us);
      rows->push_back({JsonStr("dataset", name), JsonStr("struct", sname),
                       JsonInt("n", ds.n()), JsonNum("us_per_query", us, 4)});
    };
    row(PhAdapter::kName, MeasurePointQueryUs<PhAdapter>(ds, queries));
    row(Kd1Adapter::kName, MeasurePointQueryUs<Kd1Adapter>(ds, queries));
    row(Kd2Adapter::kName, MeasurePointQueryUs<Kd2Adapter>(ds, queries));
    row(Cb1Adapter::kName, MeasurePointQueryUs<Cb1Adapter>(ds, queries));
    row(Cb2Adapter::kName, MeasurePointQueryUs<Cb2Adapter>(ds, queries));
  }
}

int Main(int argc, char** argv) {
  const std::string json_path =
      argc > 1 ? argv[1] : std::string("BENCH_queries.json");
  PrintHeader("fig08_point_queries", "Figure 8 (a,b,c), Sect. 4.3.2",
              "Average point query time vs n, 50% hit rate");
  const RunMetadata meta = CollectRunMetadata();
  std::printf("# %s\n", MetadataJson(meta).c_str());
  const std::vector<size_t> sizes = {ScaledN(50000), ScaledN(100000),
                                     ScaledN(200000), ScaledN(400000)};
  BenchSection section{"Fig. 8 (a,b,c), Sect. 4.3.2"};
  std::vector<JsonFields>& rows = section.rows;
  RunDataset("2D TIGER/Line", "Fig. 8a", sizes,
             [](size_t n) { return GenerateTigerLike(n, 42); }, &rows);
  RunDataset("3D CUBE", "Fig. 8b", sizes,
             [](size_t n) { return GenerateCube(n, 3, 42); }, &rows);
  RunDataset("3D CLUSTER0.5", "Fig. 8c", sizes,
             [](size_t n) { return GenerateCluster(n, 3, 0.5, 42); }, &rows);
  if (!WriteBenchSection(json_path, "queries", "point_queries", meta,
                         section)) {
    return 1;
  }
  std::printf("# wrote %s (section point_queries)\n", json_path.c_str());
  return 0;
}

}  // namespace
}  // namespace phtree::bench

int main(int argc, char** argv) {
  return phtree::bench::Main(argc, argv);
}
