#include "benchlib/workloads.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "benchlib/json_artifact.h"
#include "common/rng.h"
#include "datasets/datasets.h"
#include "phtree/phtree.h"
#include "phtree/phtree_d.h"
#include "phtree/validate.h"

namespace phtree::bench {
namespace {

TEST(PointQueries, RoughlyHalfHitExistingPoints) {
  const Dataset ds = GenerateCube(20000, 3, 1);
  const auto queries = MakePointQueries(ds, 10000, 7);
  ASSERT_EQ(queries.size(), 10000u);
  size_t hits = 0;
  // Existing points are copied verbatim; random misses almost surely do not
  // collide, so exact-match counting approximates the hit fraction.
  std::set<std::vector<double>> points;
  for (size_t i = 0; i < ds.n(); ++i) {
    const auto p = ds.point(i);
    points.insert(std::vector<double>(p.begin(), p.end()));
  }
  for (const auto& q : queries) {
    hits += points.count(q);
  }
  EXPECT_NEAR(static_cast<double>(hits) / 10000.0, 0.5, 0.03);
}

TEST(PointQueries, StayWithinDataBounds) {
  const Dataset ds = GenerateTigerLike(5000, 2);
  const auto queries = MakePointQueries(ds, 2000, 9);
  for (const auto& q : queries) {
    EXPECT_GE(q[0], -125.0);
    EXPECT_LE(q[0], -65.0);
    EXPECT_GE(q[1], 24.0);
    EXPECT_LE(q[1], 50.0);
  }
}

TEST(VolumeQueries, CoverRequestedFraction) {
  const Dataset ds = GenerateCube(5000, 3, 2);
  for (const double coverage : {0.001, 0.01, 0.1}) {
    const auto boxes = MakeVolumeQueries(ds, 300, coverage, 11);
    double sum = 0;
    for (const auto& b : boxes) {
      double vol = 1.0;
      for (int d = 0; d < 3; ++d) {
        EXPECT_LE(b.lo[d], b.hi[d]);
        vol *= (b.hi[d] - b.lo[d]);
      }
      sum += vol;
    }
    // Domain is ~[0,1]^3; average box volume must match the coverage.
    EXPECT_NEAR(sum / 300.0, coverage, coverage * 0.25);
  }
}

TEST(VolumeQueries, EdgesHaveRandomLengths) {
  const Dataset ds = GenerateCube(5000, 2, 2);
  const auto boxes = MakeVolumeQueries(ds, 200, 0.01, 13);
  // The boxes must not all be squares: the paper adjusts exactly one edge.
  size_t non_square = 0;
  for (const auto& b : boxes) {
    const double w = b.hi[0] - b.lo[0];
    const double h = b.hi[1] - b.lo[1];
    if (std::abs(w - h) > 1e-6) {
      ++non_square;
    }
  }
  EXPECT_GT(non_square, 150u);
}

TEST(ClusterQueries, MatchPaperShape) {
  const auto boxes = MakeClusterQueries(5, 100, 17);
  for (const auto& b : boxes) {
    // Full extent in every dimension but x.
    for (int d = 1; d < 5; ++d) {
      EXPECT_EQ(b.lo[d], 0.0);
      EXPECT_EQ(b.hi[d], 1.0);
    }
    // x: length 0.0001, located in [0, 0.1].
    EXPECT_NEAR(b.hi[0] - b.lo[0], 0.0001, 1e-12);
    EXPECT_GE(b.lo[0], 0.0);
    EXPECT_LE(b.lo[0], 0.1);
  }
}

std::string ArtifactPath(const char* name) {
  const std::string path =
      (std::filesystem::temp_directory_path() / name).string();
  std::error_code ec;
  std::filesystem::remove(path, ec);
  return path;
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path);
  std::stringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

TEST(JsonArtifact, RerunReplacesOwnSectionInsteadOfDuplicating) {
  // Regression: the section splice used the wrong nesting depth when
  // looking for an existing section, so re-running a bench appended a
  // duplicate key instead of replacing its previous run (JSON parsers then
  // silently kept the stale copy).
  const std::string path = ArtifactPath("phtree_artifact_test.json");
  ASSERT_TRUE(UpdateJsonArtifact(path, "t", "alpha", "{\"v\": 1}"));
  ASSERT_TRUE(UpdateJsonArtifact(path, "t", "beta", "{\"v\": 2}"));
  ASSERT_TRUE(UpdateJsonArtifact(path, "t", "alpha", "{\"v\": 3}"));
  const std::string contents = ReadFile(path);
  std::filesystem::remove(path);
  size_t count = 0;
  for (size_t pos = contents.find("\"alpha\""); pos != std::string::npos;
       pos = contents.find("\"alpha\"", pos + 1)) {
    ++count;
  }
  EXPECT_EQ(count, 1u) << contents;
  EXPECT_NE(contents.find("\"v\": 3"), std::string::npos) << contents;
  EXPECT_EQ(contents.find("\"v\": 1"), std::string::npos) << contents;
  EXPECT_NE(contents.find("\"beta\""), std::string::npos) << contents;
}

TEST(JsonArtifact, ForeignOrUnparseableFileIsLeftUntouched) {
  // A bench pointed at another artefact (table1_space BENCH_queries.json)
  // or at a file that is no artefact must fail and leave it as it was; the
  // splice used to rewrite it holding only the new section.
  const std::string path = ArtifactPath("phtree_artifact_foreign.json");
  for (const std::string& contents :
       {std::string("{\n\"bench\": \"queries\",\n\"sections\": {\n"
                    "\"point_queries\": {\"rows\": []}\n}\n}\n"),
        std::string("{\"bench\": \"space\", \"sections\": {\"table1\": "),
        std::string("not json"), std::string()}) {
    std::ofstream(path) << contents;
    EXPECT_FALSE(UpdateJsonArtifact(path, "space", "table1", "{}"));
    EXPECT_EQ(ReadFile(path), contents);
  }
  std::filesystem::remove(path);
}

TEST(JsonArtifact, SectionWriterLayout) {
  // Every section has one layout: figure, metadata stamp, extra fields,
  // one row per line with each value at its own decimals, and "derived"
  // only when given.
  const std::string path = ArtifactPath("phtree_artifact_layout.json");
  BenchSection section{"Fig. 0", {JsonBool("simd_active", true)}};
  section.rows = {
      {JsonStr("dataset", "2D \"A\""), JsonInt("n", 7),
       JsonNum("us_per_op", 1.23456, 4)},
      {JsonStr("dataset", "B"), JsonInt("n", 8), JsonNum("ops", 2.4, 0)}};
  ASSERT_TRUE(WriteBenchSection(path, "t", "one",
                                {4, "Release", "abc1234", 0.02, "madvise"},
                                section));
  section.derived = {JsonNum("ratio", 1.0704, 3)};
  section.rows.pop_back();
  ASSERT_TRUE(WriteBenchSection(path, "t", "two",
                                {1, "Release", "abc1234", 1}, section));
  EXPECT_EQ(ReadFile(path),
            "{\n\"bench\": \"t\",\n\"sections\": {\n"
            "\"two\": {\n"
            "  \"figure\": \"Fig. 0\",\n"
            "  \"metadata\": {\"cores\": 1, \"build_type\": \"Release\", "
            "\"git_sha\": \"abc1234\", \"scale\": 1, "
            "\"thp\": \"unavailable\"},\n"
            "  \"simd_active\": true,\n"
            "  \"rows\": [\n"
            "    {\"dataset\": \"2D \\\"A\\\"\", \"n\": 7, "
            "\"us_per_op\": 1.2346}\n"
            "  ],\n"
            "  \"derived\": {\"ratio\": 1.070}\n"
            "},\n"
            "\"one\": {\n"
            "  \"figure\": \"Fig. 0\",\n"
            "  \"metadata\": {\"cores\": 4, \"build_type\": \"Release\", "
            "\"git_sha\": \"abc1234\", \"scale\": 0.02, "
            "\"thp\": \"madvise\"},\n"
            "  \"simd_active\": true,\n"
            "  \"rows\": [\n"
            "    {\"dataset\": \"2D \\\"A\\\"\", \"n\": 7, "
            "\"us_per_op\": 1.2346},\n"
            "    {\"dataset\": \"B\", \"n\": 8, \"ops\": 2}\n"
            "  ]\n"
            "}\n}\n}\n");
  std::filesystem::remove(path);
}

TEST(Workloads, DeterministicInSeed) {
  const Dataset ds = GenerateCube(1000, 3, 3);
  const auto a = MakeVolumeQueries(ds, 50, 0.01, 5);
  const auto b = MakeVolumeQueries(ds, 50, 0.01, 5);
  const auto c = MakeVolumeQueries(ds, 50, 0.01, 6);
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].lo, b[i].lo);
    EXPECT_EQ(a[i].hi, b[i].hi);
  }
  EXPECT_NE(a[0].lo, c[0].lo);
}

// ---- Churn & skew scenarios ---------------------------------------------

TEST(Zipf, ProbabilitiesMatchTheLaw) {
  const size_t n = 1000;
  const double s = 1.1;
  ZipfSampler zipf(n, s, 1);
  // P(k) ∝ 1/(k+1)^s: every adjacent-rank probability ratio equals the
  // law's, and the distribution sums to one.
  double total = 0.0;
  for (size_t k = 0; k < n; ++k) {
    total += zipf.Probability(k);
  }
  EXPECT_NEAR(total, 1.0, 1e-9);
  for (size_t k = 0; k + 1 < 20; ++k) {
    const double want = std::pow(static_cast<double>(k + 2), s) /
                        std::pow(static_cast<double>(k + 1), s);
    EXPECT_NEAR(zipf.Probability(k) / zipf.Probability(k + 1), want, 1e-9)
        << "rank " << k;
  }
}

TEST(Zipf, EmpiricalRankFrequencySlope) {
  // log(freq) vs log(rank+1) regresses to slope ~ -s over the head ranks.
  const size_t n = 10000;
  const double s = 1.2;
  ZipfSampler zipf(n, s, 99);
  std::vector<size_t> counts(n, 0);
  const size_t draws = 200000;
  for (size_t i = 0; i < draws; ++i) {
    ++counts[zipf.Next()];
  }
  // Head ranks get enough mass for a stable fit.
  double sx = 0, sy = 0, sxx = 0, sxy = 0;
  size_t m = 0;
  for (size_t k = 0; k < 50; ++k) {
    if (counts[k] == 0) {
      continue;
    }
    const double x = std::log(static_cast<double>(k + 1));
    const double y = std::log(static_cast<double>(counts[k]));
    sx += x;
    sy += y;
    sxx += x * x;
    sxy += x * y;
    ++m;
  }
  ASSERT_GT(m, 30u);
  const double slope =
      (static_cast<double>(m) * sxy - sx * sy) /
      (static_cast<double>(m) * sxx - sx * sx);
  EXPECT_NEAR(slope, -s, 0.1);
}

TEST(Zipf, DeterministicInSeed) {
  ZipfSampler a(100, 1.0, 5);
  ZipfSampler b(100, 1.0, 5);
  ZipfSampler c(100, 1.0, 6);
  bool differs = false;
  for (int i = 0; i < 200; ++i) {
    const size_t ra = a.Next();
    EXPECT_EQ(ra, b.Next());
    differs |= ra != c.Next();
  }
  EXPECT_TRUE(differs);
}

TEST(MovingObjects, ExactMoverCountAndBounds) {
  MovingObjectsConfig config;
  config.dim = 3;
  config.n_objects = 500;
  config.move_fraction = 0.2;
  config.sigma = 0.05;
  MovingObjectsWorkload workload(config, 21);
  for (int tick = 0; tick < 5; ++tick) {
    const auto moves = workload.Tick();
    // Partial Fisher-Yates: exactly floor(0.2 * 500) distinct objects.
    ASSERT_EQ(moves.size(), 100u);
    std::set<size_t> objects;
    for (const auto& m : moves) {
      EXPECT_TRUE(objects.insert(m.object).second) << "duplicate mover";
      ASSERT_EQ(m.to.size(), 3u);
      for (uint32_t d = 0; d < 3; ++d) {
        EXPECT_GE(m.to[d], config.lo);
        EXPECT_LE(m.to[d], config.hi);
        // The workload's own position table advances with the move.
        EXPECT_EQ(workload.positions()[m.object][d], m.to[d]);
      }
    }
  }
}

TEST(MovingObjects, DisplacementMatchesSigma) {
  MovingObjectsConfig config;
  config.dim = 2;
  config.n_objects = 2000;
  config.move_fraction = 1.0;
  config.sigma = 0.01;
  MovingObjectsWorkload workload(config, 33);
  double sum = 0.0, sum2 = 0.0;
  size_t samples = 0;
  for (int tick = 0; tick < 10; ++tick) {
    for (const auto& m : workload.Tick()) {
      for (uint32_t d = 0; d < 2; ++d) {
        const double step = m.to[d] - m.from[d];
        sum += step;
        sum2 += step * step;
        ++samples;
      }
    }
  }
  const double mean = sum / static_cast<double>(samples);
  const double stddev =
      std::sqrt(sum2 / static_cast<double>(samples) - mean * mean);
  // Gaussian steps: zero-mean, sigma-scaled (clamping at the domain edge
  // is negligible for sigma = 0.01 on a unit box).
  EXPECT_NEAR(mean, 0.0, 0.001);
  EXPECT_NEAR(stddev, config.sigma, config.sigma * 0.1);
}

TEST(MovingObjects, DeterministicInSeed) {
  MovingObjectsConfig config;
  config.n_objects = 50;
  config.move_fraction = 0.5;
  MovingObjectsWorkload a(config, 4);
  MovingObjectsWorkload b(config, 4);
  for (int tick = 0; tick < 3; ++tick) {
    const auto ma = a.Tick();
    const auto mb = b.Tick();
    ASSERT_EQ(ma.size(), mb.size());
    for (size_t i = 0; i < ma.size(); ++i) {
      EXPECT_EQ(ma[i].object, mb[i].object);
      EXPECT_EQ(ma[i].to, mb[i].to);
    }
  }
}

TEST(SkewedQueries, HeadConcentratesNearHotCenters) {
  // Queries are drawn Zipf over a nearest-hot-center distance ranking, so
  // a handful of distinct points must dominate the sample.
  std::vector<std::vector<double>> points;
  Rng rng(8);
  for (int i = 0; i < 5000; ++i) {
    points.push_back({rng.NextDouble(), rng.NextDouble()});
  }
  const auto queries = MakeSkewedPointQueries(points, 20000, 1.1, 4, 17);
  ASSERT_EQ(queries.size(), 20000u);
  std::map<std::vector<double>, size_t> freq;
  for (const auto& q : queries) {
    ++freq[q];
  }
  std::vector<size_t> counts;
  for (const auto& [q, c] : freq) {
    counts.push_back(c);
  }
  std::sort(counts.rbegin(), counts.rend());
  size_t top10 = 0;
  for (size_t i = 0; i < 10 && i < counts.size(); ++i) {
    top10 += counts[i];
  }
  // Uniform sampling would put ~0.2% in any 10 points; the Zipf head puts
  // a double-digit share there.
  EXPECT_GT(top10, queries.size() / 10);
  // Every query is an existing point.
  std::set<std::vector<double>> index(points.begin(), points.end());
  for (const auto& q : queries) {
    EXPECT_EQ(index.count(q), 1u);
  }
}

TEST(Ttl, EpochAdvancesAndWindowTrailsByTtl) {
  TtlConfig config;
  config.space_dim = 2;
  config.inserts_per_epoch = 10;
  config.ttl = 3;
  TtlWorkload workload(config, 5);
  ASSERT_EQ(workload.key_dim(), 3u);
  std::vector<double> lo, hi;
  // No batch yet: nothing can be expired.
  EXPECT_FALSE(workload.ExpiryWindow(&lo, &hi));
  for (uint64_t e = 0; e < 6; ++e) {
    const auto batch = workload.NextBatch();
    ASSERT_EQ(batch.size(), 10u);
    EXPECT_EQ(workload.epoch(), e);
    for (const auto& key : batch) {
      ASSERT_EQ(key.size(), 3u);
      EXPECT_EQ(key[0], static_cast<double>(e));  // leading time dimension
      for (int d = 1; d < 3; ++d) {
        EXPECT_GE(key[d], config.lo);
        EXPECT_LE(key[d], config.hi);
      }
    }
    if (e < config.ttl) {
      EXPECT_FALSE(workload.ExpiryWindow(&lo, &hi));
    } else {
      ASSERT_TRUE(workload.ExpiryWindow(&lo, &hi));
      EXPECT_EQ(lo[0], 0.0);
      EXPECT_EQ(hi[0], static_cast<double>(e - config.ttl));
      for (int d = 1; d < 3; ++d) {
        EXPECT_EQ(lo[d], config.lo);
        EXPECT_EQ(hi[d], config.hi);
      }
    }
  }
}

// End-to-end churn: drive a PH-tree with the moving-objects workload
// through Update and run the deep structural validator after every tick —
// the bench scenario's integrity argument in tier-1 form.
TEST(ChurnIntegration, TreeStaysValidUnderMovingObjects) {
  MovingObjectsConfig config;
  config.dim = 2;
  config.n_objects = 400;
  config.move_fraction = 0.25;
  config.sigma = 0.002;
  MovingObjectsWorkload workload(config, 77);
  PhTree tree(config.dim);
  std::vector<PhKey> keys;
  for (size_t i = 0; i < config.n_objects; ++i) {
    PhKey key = EncodeKeyD(workload.positions()[i]);
    // Collisions under the double grid are possible; track the live key.
    tree.InsertOrAssign(key, i);
    keys.push_back(std::move(key));
  }
  for (int tick = 0; tick < 12; ++tick) {
    size_t applied = 0;
    for (const auto& m : workload.Tick()) {
      const PhKey to = EncodeKeyD(m.to);
      const UpdateOutcome out = tree.Update(keys[m.object], to);
      if (out == UpdateOutcome::kMoved) {
        keys[m.object] = to;
        ++applied;
      } else {
        // Collided with another object's live key (or this object lost its
        // slot to a collision earlier); both leave the tree unchanged.
        ASSERT_TRUE(out == UpdateOutcome::kNewOccupied ||
                    out == UpdateOutcome::kOldMissing)
            << UpdateOutcomeName(out);
      }
    }
    EXPECT_GT(applied, 0u);
    ASSERT_EQ(ValidatePhTreeDeep(tree), "") << "tick " << tick;
  }
  const PhUpdateStats& stats = tree.update_stats();
  EXPECT_GT(stats.fast_path, 0u);
}

}  // namespace
}  // namespace phtree::bench
