// Churn & skew workload suite (no paper figure — this measures the
// repository's own Update(old_key, new_key) fast path against the
// erase+insert composite it replaces, plus the skewed access patterns the
// paper's motivation names: moving objects and hot-partition queries).
//
// Three sections land in BENCH_churn.json (argv[1] overrides the path):
//
//   * "moving_objects": a pre-generated moving-objects stream (benchlib
//     MovingObjectsWorkload, exact per-tick mover counts, Gaussian steps)
//     replayed twice per repetition — once through PhTree::Update, once as
//     Erase(old) + Insert(new) — on identically built trees. Nearby
//     (small-sigma) moves mostly stay inside one node, so the Update arm
//     descends once and rewrites that one node; far moves fall back to
//     the composite and the two arms converge.
//
//   * "zipf_queries": point-lookup throughput under Zipf-skewed query
//     traffic with spatial hot regions (MakeSkewedPointQueries) vs uniform
//     traffic on the same tree — the cache-residency win of a hot working
//     set.
//
//   * "ttl_eviction": the TTL retention loop — per-epoch batch inserts
//     with a leading time dimension, then one axis-aligned expiry window
//     sweep erasing everything older than the TTL.
//
// Repetitions of the A/B arms are interleaved (like batch_point_queries)
// so background load drifts hit both arms equally; consumers compare the
// per-arm minima. tools/check_bench.py gates the committed artifact.
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "benchlib/adapters.h"
#include "benchlib/harness.h"
#include "benchlib/json_artifact.h"
#include "benchlib/workloads.h"
#include "phtree/phtree.h"

namespace phtree::bench {
namespace {

constexpr int kReps = 5;

/// One artefact row: `value_key` names the section's time unit.
JsonFields Row(const std::string& dataset, const char* mode, uint64_t n,
               const char* value_key, double us) {
  return {JsonStr("dataset", dataset), JsonStr("struct", mode),
          JsonInt("n", n), JsonNum(value_key, us, 4)};
}

/// One fully pre-generated move stream: the initial placement plus every
/// tick's (from, to) pairs in encoded key space, so both arms replay the
/// exact same relocations with zero generation cost inside the timed loop.
struct MoveStream {
  std::vector<PhKey> initial;
  struct EncodedMove {
    uint64_t object;
    PhKey from;
    PhKey to;
  };
  std::vector<EncodedMove> moves;
};

MoveStream GenerateMoves(const MovingObjectsConfig& config, size_t ticks,
                         uint64_t seed) {
  MovingObjectsWorkload workload(config, seed);
  MoveStream stream;
  stream.initial.reserve(config.n_objects);
  for (const auto& p : workload.positions()) {
    stream.initial.push_back(EncodeKeyD(p));
  }
  for (size_t t = 0; t < ticks; ++t) {
    for (auto& m : workload.Tick()) {
      stream.moves.push_back(MoveStream::EncodedMove{
          m.object, EncodeKeyD(m.from), EncodeKeyD(m.to)});
    }
  }
  return stream;
}

PhTree BuildTree(uint32_t dim, const std::vector<PhKey>& keys) {
  PhTree tree(dim);
  for (size_t i = 0; i < keys.size(); ++i) {
    tree.Insert(keys[i], i);
  }
  return tree;
}

/// Both arms of one dataset, kReps interleaved repetitions. Each
/// measurement rebuilds its tree from the same initial placement (untimed)
/// and then replays the whole stream (timed).
void RunMovingObjects(const char* name, const MovingObjectsConfig& config,
                      size_t ticks, uint64_t seed, Table* table,
                      std::vector<JsonFields>* rows) {
  const MoveStream stream = GenerateMoves(config, ticks, seed);
  if (stream.moves.empty()) {
    return;
  }
  uint64_t fast_path = 0;
  uint64_t fallback = 0;
  for (int rep = 0; rep < kReps; ++rep) {
    for (const bool use_update : {true, false}) {
      PhTree tree = BuildTree(config.dim, stream.initial);
      Timer timer;
      if (use_update) {
        for (const auto& m : stream.moves) {
          tree.Update(m.from, m.to);
        }
      } else {
        for (const auto& m : stream.moves) {
          tree.Erase(m.from);
          tree.Insert(m.to, m.object);
        }
      }
      const double us =
          timer.ElapsedUs() / static_cast<double>(stream.moves.size());
      if (use_update) {
        fast_path = tree.update_stats().fast_path;
        fallback = tree.update_stats().fallback;
      }
      const char* mode = use_update ? "update" : "erase_insert";
      table->Cell(std::string(name));
      table->Cell(std::string(mode));
      table->Cell(static_cast<uint64_t>(config.n_objects));
      table->Cell(us);
      rows->push_back(Row(name, mode, config.n_objects, "us_per_move", us));
    }
  }
  std::printf("# %s: %zu moves, update fast_path=%llu fallback=%llu\n", name,
              stream.moves.size(),
              static_cast<unsigned long long>(fast_path),
              static_cast<unsigned long long>(fallback));
}

std::vector<JsonFields> RunMovingObjectsSection() {
  std::printf("\n## Moving objects: Update vs Erase+Insert (same streams)\n");
  Table table({"dataset", "mode", "n", "us/move"});
  std::vector<JsonFields> rows;
  const size_t n = ScaledN(100000);
  const size_t ticks = 10;
  {
    MovingObjectsConfig config;
    config.dim = 2;
    config.n_objects = n;
    config.move_fraction = 0.2;
    // Steps a small fraction of the ~1/sqrt(n) inter-object spacing: the
    // move flips only low key bits, so relocation stays inside one node.
    config.sigma = 0.0001;
    RunMovingObjects("MOVE2D nearby", config, ticks, 42, &table, &rows);
  }
  {
    MovingObjectsConfig config;
    config.dim = 3;
    config.n_objects = n;
    config.move_fraction = 0.2;
    config.sigma = 0.0001;
    RunMovingObjects("MOVE3D nearby", config, ticks, 43, &table, &rows);
  }
  {
    MovingObjectsConfig config;
    config.dim = 2;
    config.n_objects = n;
    config.move_fraction = 0.2;
    config.sigma = 0.3;  // teleports: mostly the erase+insert fallback
    RunMovingObjects("MOVE2D far", config, ticks, 44, &table, &rows);
  }
  return rows;
}

std::vector<JsonFields> RunZipfQueries() {
  std::printf("\n## Zipf-skewed vs uniform point lookups (same tree)\n");
  Table table({"dataset", "mode", "n", "us/query"});
  std::vector<JsonFields> rows;
  const size_t n = ScaledN(200000);
  const size_t n_queries = ScaledN(100000);
  const Dataset ds = GenerateCube(n, 2, 42);
  std::vector<std::vector<double>> points;
  points.reserve(ds.n());
  for (size_t i = 0; i < ds.n(); ++i) {
    const auto p = ds.point(i);
    points.emplace_back(p.begin(), p.end());
  }
  const auto encode_all = [](const std::vector<std::vector<double>>& qs) {
    std::vector<PhKey> keys;
    keys.reserve(qs.size());
    for (const auto& q : qs) {
      keys.push_back(EncodeKeyD(q));
    }
    return keys;
  };
  const std::vector<PhKey> zipf_keys = encode_all(
      MakeSkewedPointQueries(points, n_queries, 1.1, /*hot_regions=*/4, 7));
  const std::vector<PhKey> uniform_keys =
      encode_all(MakePointQueries(ds, n_queries, 1234));
  PhTree tree(ds.dim);
  for (size_t i = 0; i < points.size(); ++i) {
    tree.Insert(EncodeKeyD(points[i]), i);
  }
  for (int rep = 0; rep < kReps; ++rep) {
    for (const bool use_zipf : {true, false}) {
      const std::vector<PhKey>& keys = use_zipf ? zipf_keys : uniform_keys;
      size_t hits = 0;
      Timer timer;
      for (const PhKey& k : keys) {
        hits += tree.Find(k).has_value() ? 1 : 0;
      }
      const double us = timer.ElapsedUs() / static_cast<double>(keys.size());
      (void)hits;
      const char* mode = use_zipf ? "zipf" : "uniform";
      table.Cell(std::string("2D CUBE s=1.1 hot=4"));
      table.Cell(std::string(mode));
      table.Cell(static_cast<uint64_t>(n));
      table.Cell(us);
      rows.push_back(Row("2D CUBE s=1.1 hot=4", mode, n, "us_per_query", us));
    }
  }
  return rows;
}

std::vector<JsonFields> RunTtlEviction() {
  std::printf("\n## TTL eviction: epoch inserts + expiry window sweeps\n");
  Table table({"dataset", "mode", "n", "us/op"});
  std::vector<JsonFields> rows;
  TtlConfig config;
  config.space_dim = 2;
  config.inserts_per_epoch = ScaledN(5000);
  config.ttl = 8;
  if (config.inserts_per_epoch == 0) {
    return rows;
  }
  const size_t epochs = 24;
  const uint64_t steady_n =
      static_cast<uint64_t>(config.ttl) * config.inserts_per_epoch;
  for (int rep = 0; rep < kReps; ++rep) {
    TtlWorkload workload(config, 42);
    PhTree tree(workload.key_dim());
    size_t ops = 0;
    Timer timer;
    for (size_t e = 0; e < epochs; ++e) {
      const auto batch = workload.NextBatch();
      for (size_t i = 0; i < batch.size(); ++i) {
        tree.Insert(EncodeKeyD(batch[i]), i);
        ++ops;
      }
      std::vector<double> lo;
      std::vector<double> hi;
      if (workload.ExpiryWindow(&lo, &hi)) {
        const auto expired =
            tree.QueryWindow(EncodeKeyD(lo), EncodeKeyD(hi));
        for (const auto& [key, value] : expired) {
          tree.Erase(key);
          ++ops;
        }
      }
    }
    const double us = timer.ElapsedUs() / static_cast<double>(ops);
    table.Cell(std::string("TTL 2D+t ttl=8"));
    table.Cell(std::string("sweep"));
    table.Cell(steady_n);
    table.Cell(us);
    rows.push_back(Row("TTL 2D+t ttl=8", "sweep", steady_n, "us_per_op", us));
  }
  return rows;
}

int Main(int argc, char** argv) {
  const std::string json_path =
      argc > 1 ? argv[1] : std::string("BENCH_churn.json");
  PrintHeader("churn_throughput", "Churn & skew suite (no paper figure)",
              "Update fast path vs erase+insert; Zipf queries; TTL sweeps");
  const RunMetadata meta = CollectRunMetadata();
  std::printf("# %s\n", MetadataJson(meta).c_str());
  const std::pair<const char*, BenchSection> sections[] = {
      {"moving_objects",
       {"Update vs Erase+Insert on moving objects", {},
        RunMovingObjectsSection()}},
      {"zipf_queries",
       {"Zipf-skewed vs uniform point lookups", {}, RunZipfQueries()}},
      {"ttl_eviction",
       {"TTL epoch inserts + expiry window sweeps", {}, RunTtlEviction()}},
  };
  for (const auto& [name, section] : sections) {
    if (!WriteBenchSection(json_path, "churn", name, meta, section)) {
      return 1;
    }
  }
  std::printf(
      "# wrote %s (sections moving_objects, zipf_queries, ttl_eviction)\n",
      json_path.c_str());
  return 0;
}

}  // namespace
}  // namespace phtree::bench

int main(int argc, char** argv) {
  return phtree::bench::Main(argc, argv);
}
