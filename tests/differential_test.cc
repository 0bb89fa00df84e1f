// Tier-1 bounded runs of the model-based differential harness: seeded
// random workloads and byte-decoded (fuzzer-shaped) workloads replayed
// against every tree variant at once, asserting zero divergence from the
// ReferenceModel oracle. The >= 1M-application soak lives in
// fuzz/diff_soak.cc; these runs are sized for the sanitizer presets.
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <string>
#include <vector>

#include "testlib/commands.h"
#include "testlib/differential.h"
#include "testlib/reference_model.h"

namespace phtree {
namespace testlib {
namespace {

TEST(ReferenceModelTest, BasicSemantics) {
  ReferenceModel model(2);
  EXPECT_TRUE(model.Insert({1, 2}, 10));
  EXPECT_FALSE(model.Insert({1, 2}, 11));  // duplicate rejected
  EXPECT_EQ(model.Find(PhKey{1, 2}), std::optional<uint64_t>(10));
  EXPECT_FALSE(model.InsertOrAssign({1, 2}, 12));  // overwrite, not new
  EXPECT_EQ(model.Find(PhKey{1, 2}), std::optional<uint64_t>(12));
  EXPECT_TRUE(model.InsertOrAssign({3, 4}, 13));
  EXPECT_EQ(model.size(), 2u);
  // Degenerate window (min > max on axis 1): empty.
  EXPECT_TRUE(model.QueryWindow(PhKey{0, 5}, PhKey{10, 0}).empty());
  EXPECT_EQ(model.CountWindow(PhKey{0, 0}, PhKey{10, 10}), 2u);
  EXPECT_TRUE(model.Erase({1, 2}));
  EXPECT_FALSE(model.Erase({1, 2}));
  model.Clear();
  EXPECT_TRUE(model.empty());
}

TEST(DifferentialTest, SeededRunAcrossAllVariantsHasZeroDivergence) {
  DiffOptions opts;
  opts.seed = 42;
  opts.ops = 4000;
  opts.commands.dim = 2;
  opts.commands.grid_bits = 7;
  opts.validate_every = 500;
  const std::string tmp =
      (std::filesystem::temp_directory_path() / "phtree_diff_test").string();
  std::filesystem::create_directories(tmp);
  opts.tmp_dir = tmp;

  const DiffReport report = RunDifferential(opts);
  std::error_code ec;
  std::filesystem::remove_all(tmp, ec);

  EXPECT_EQ(report.divergence, "");
  EXPECT_EQ(report.ops_run, opts.ops);
  // plain, forced-scalar-kernel plain, MVCC/COW plain, one-shard sharded
  // (PhTreeSync), 4x sharded, KD1/KD2/CB1
  EXPECT_EQ(report.variants, 11u);
  EXPECT_GT(report.replayed, opts.ops * 7);
  EXPECT_GT(report.max_size, 100u);
  // Both builder paths ran: bulk loads into an empty tree, and snapshot
  // round-trips (streamed saves, builder-based loads).
  EXPECT_GT(report.bulk_loads_into_empty, 0u);
  EXPECT_GT(report.save_loads, 0u);
}

TEST(DifferentialTest, EveryDimensionalityAndSeedStaysClean) {
  for (const uint32_t dim : {1u, 2u, 3u}) {
    for (const uint64_t seed : {1ull, 7ull}) {
      DiffOptions opts;
      opts.seed = seed;
      opts.ops = 1200;
      opts.commands.dim = dim;
      opts.commands.grid_bits = dim == 1 ? 10 : 5;
      opts.validate_every = 400;
      const DiffReport report = RunDifferential(opts);
      EXPECT_EQ(report.divergence, "") << "dim " << dim << " seed " << seed;
    }
  }
}

TEST(DifferentialTest, CoreOnlyConfigurationRuns) {
  DiffOptions opts;
  opts.seed = 3;
  opts.ops = 2000;
  opts.include_baselines = false;
  opts.include_concurrent = false;
  const DiffReport report = RunDifferential(opts);
  EXPECT_EQ(report.divergence, "");
  // plain + forced-scalar-kernel plain + MVCC/COW plain
  EXPECT_EQ(report.variants, 3u);
}

TEST(DifferentialTest, ConcurrentModeZeroDivergence) {
  // Writer-with-exact-oracle plus lock-free reader threads on one
  // PhTreeSync (see DiffOptions::reader_threads). Sized for the sanitizer
  // presets; the TSan tier-1 leg runs this exact interleaving load.
  DiffOptions opts;
  opts.seed = 17;
  opts.ops = 3000;
  opts.commands.dim = 2;
  opts.commands.grid_bits = 7;
  opts.validate_every = 500;
  opts.reader_threads = 2;
  const std::string tmp =
      (std::filesystem::temp_directory_path() / "phtree_diff_conc").string();
  std::filesystem::create_directories(tmp);
  opts.tmp_dir = tmp;  // Save/Load swaps whole trees under the readers

  const DiffReport report = RunDifferential(opts);
  std::error_code ec;
  std::filesystem::remove_all(tmp, ec);

  EXPECT_EQ(report.divergence, "");
  EXPECT_EQ(report.ops_run, opts.ops);
  EXPECT_EQ(report.variants, 1u);
  // replayed = writer applications + reader probe/audit rounds; the
  // readers spin for the whole run, so they dominate.
  EXPECT_GT(report.replayed, opts.ops);
}

TEST(DifferentialTest, BytesSourceReplaysFuzzShapedInput) {
  // A pseudo-random byte string is a valid command stream by construction;
  // this is exactly what fuzz_ops feeds through the runner.
  std::vector<uint8_t> bytes;
  uint64_t state = 0x9E3779B97F4A7C15ull;
  for (int i = 0; i < 4096; ++i) {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    bytes.push_back(static_cast<uint8_t>(state >> 56));
  }
  DiffOptions opts;
  opts.commands.dim = 2;
  opts.commands.grid_bits = 5;
  opts.ops = 100000;  // bounded by the bytes, not this cap
  opts.validate_every = 64;
  BytesCommandSource source(opts.commands, bytes);
  const DiffReport report = RunDifferential(opts, source);
  EXPECT_EQ(report.divergence, "");
  // ~10% of op bytes decode to kBulkLoad, each of which consumes up to 128
  // entries' worth of bytes — a few dozen commands out of 4 KiB is expected.
  EXPECT_GT(report.ops_run, 30u);
}

TEST(DifferentialTest, ClearHeavyWorkloadStaysClean) {
  DiffOptions opts;
  opts.seed = 11;
  opts.ops = 1500;
  opts.commands.w_clear = 10;     // clear every ~60 ops instead of ~600
  opts.commands.w_saveload = 10;  // round-trip just as often
  opts.commands.grid_bits = 6;
  opts.validate_every = 250;
  const DiffReport report = RunDifferential(opts);
  EXPECT_EQ(report.divergence, "");
  EXPECT_GT(report.bulk_loads_into_empty, 0u);
  EXPECT_GT(report.save_loads, 0u);
}

}  // namespace
}  // namespace testlib
}  // namespace phtree
