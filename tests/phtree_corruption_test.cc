// Corruption fault-injection harness for snapshot format v2 (serialize.h):
// systematically truncates, bit-flips and splices a valid snapshot and
// asserts every mutation is either rejected with the right SnapshotError
// class or yields a tree that passes ValidatePhTree — never a crash (run
// under Asan/UBSan: `ctest -L tier1` in the sanitizer build presets),
// never a silently broken tree. Also covers the atomic-save protocol and
// the I/O-vs-format error distinction.
#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "benchlib/snapshot_fault.h"
#include "common/rng.h"
#include "common/status.h"
#include "phtree/phtree.h"
#include "phtree/serialize.h"
#include "phtree/validate.h"

namespace phtree {
namespace {

PhTree MakeTree(size_t n, uint32_t dim, uint64_t seed,
                PhTreeConfig config = {}) {
  Rng rng(seed);
  PhTree tree(dim, config);
  for (size_t i = 0; i < n; ++i) {
    PhKey key(dim);
    for (auto& v : key) {
      // Mixed magnitudes so deltas span 0..8 encoded bytes.
      v = rng.NextU64() >> (rng.NextBounded(5) * 8);
    }
    tree.InsertOrAssign(key, i);
  }
  return tree;
}

/// Reference snapshot small enough for exhaustive per-bit sweeps but with
/// many records (entries_per_record=16), so record framing, record CRCs
/// and the trailer all get hit.
std::vector<uint8_t> SmallSnapshot() {
  const PhTree tree = MakeTree(128, 3, 42);
  SaveOptions opts;
  opts.entries_per_record = 16;
  return SerializePhTree(tree, opts);
}

bool CodeIn(StatusCode code, std::initializer_list<StatusCode> allowed) {
  for (StatusCode c : allowed) {
    if (c == code) {
      return true;
    }
  }
  return false;
}

TEST(SnapshotLayoutTest, DescribesFraming) {
  const auto bytes = SmallSnapshot();
  const auto layout = DescribeSnapshot(bytes);
  ASSERT_TRUE(layout.has_value()) << layout.error().ToString();
  EXPECT_EQ(layout->version, kSnapshotVersion);
  EXPECT_EQ(layout->entry_count, 128u);
  EXPECT_EQ(layout->records.size(), 8u);  // 128 entries / 16 per record
  EXPECT_EQ(layout->trailer_end, bytes.size());
  EXPECT_EQ(layout->trailer_end - layout->trailer_begin, 16u);
  uint64_t total = 0;
  for (const auto& rec : layout->records) {
    EXPECT_EQ(rec.entry_count, 16u);
    total += rec.entry_count;
  }
  EXPECT_EQ(total, layout->entry_count);
}

TEST(CorruptionHarness, TruncationAtEveryByteIsDetected) {
  const auto bytes = SmallSnapshot();
  for (size_t len = 0; len < bytes.size(); ++len) {
    StatusCode code = StatusCode::kOk;
    const std::string failure =
        CheckMutatedSnapshot(TruncateSnapshot(bytes, len), &code);
    ASSERT_EQ(failure, "") << "truncated to " << len << " bytes";
    ASSERT_EQ(code, StatusCode::kTruncated)
        << "truncated to " << len << " bytes, got " << StatusCodeName(code);
  }
}

TEST(CorruptionHarness, EveryBitFlipIsDetectedWithTheRightClass) {
  const auto bytes = SmallSnapshot();
  const auto layout = DescribeSnapshot(bytes);
  ASSERT_TRUE(layout.has_value());
  std::map<SnapshotRegion, size_t> hits;
  for (size_t bit = 0; bit < bytes.size() * 8; ++bit) {
    StatusCode code = StatusCode::kOk;
    const std::string failure = CheckMutatedSnapshot(FlipBit(bytes, bit), &code);
    ASSERT_EQ(failure, "") << "bit " << bit;
    const SnapshotRegion region = RegionOf(*layout, bit / 8);
    ++hits[region];
    bool allowed = false;
    switch (region) {
      case SnapshotRegion::kHeader:
        allowed = CodeIn(code, {StatusCode::kBadMagic,
                                StatusCode::kUnsupportedVersion,
                                StatusCode::kHeaderCorrupt});
        break;
      case SnapshotRegion::kRecordLength:
        allowed = CodeIn(code, {StatusCode::kTruncated,
                                StatusCode::kRecordCorrupt});
        break;
      case SnapshotRegion::kRecordPayload:
      case SnapshotRegion::kRecordCrc:
        allowed = CodeIn(code, {StatusCode::kRecordCorrupt});
        break;
      case SnapshotRegion::kTrailer:
        allowed = CodeIn(code, {StatusCode::kTrailerCorrupt});
        break;
    }
    ASSERT_TRUE(allowed) << "bit " << bit << " in region "
                         << SnapshotRegionName(region) << " rejected as "
                         << StatusCodeName(code);
  }
  // The sweep actually exercised every region.
  for (SnapshotRegion region :
       {SnapshotRegion::kHeader, SnapshotRegion::kRecordLength,
        SnapshotRegion::kRecordPayload, SnapshotRegion::kRecordCrc,
        SnapshotRegion::kTrailer}) {
    EXPECT_GT(hits[region], 0u) << SnapshotRegionName(region);
  }
}

TEST(CorruptionHarness, RecordBoundaryTruncationOnLargeSnapshot) {
  // Default framing (512 entries/record) over a multi-record tree.
  const PhTree tree = MakeTree(1500, 3, 7);
  const auto bytes = SerializePhTree(tree);
  const auto layout = DescribeSnapshot(bytes);
  ASSERT_TRUE(layout.has_value());
  ASSERT_EQ(layout->records.size(), 3u);
  std::vector<size_t> cuts = {layout->header_end, layout->trailer_begin};
  for (const auto& rec : layout->records) {
    cuts.push_back(rec.begin);
    cuts.push_back(rec.payload_begin);
    cuts.push_back(rec.crc_offset);
    cuts.push_back(rec.end);
  }
  for (size_t cut : cuts) {
    StatusCode code = StatusCode::kOk;
    ASSERT_EQ(CheckMutatedSnapshot(TruncateSnapshot(bytes, cut), &code), "");
    ASSERT_EQ(code, StatusCode::kTruncated) << "cut at " << cut;
  }
}

TEST(CorruptionHarness, RecordSplicesAreDetected) {
  const PhTree tree = MakeTree(1500, 3, 7);
  const auto bytes = SerializePhTree(tree);
  const auto layout = DescribeSnapshot(bytes);
  ASSERT_TRUE(layout.has_value());
  ASSERT_GE(layout->records.size(), 3u);

  StatusCode code = StatusCode::kOk;
  // Swapping two CRC-intact records must still be caught (by the decoded
  // key checks or the whole-stream trailer CRC).
  ASSERT_EQ(CheckMutatedSnapshot(SwapRecords(bytes, *layout, 0, 2), &code), "");
  EXPECT_NE(code, StatusCode::kOk) << "record swap was accepted";
  ASSERT_EQ(CheckMutatedSnapshot(SwapRecords(bytes, *layout, 1, 2), &code), "");
  EXPECT_NE(code, StatusCode::kOk) << "record swap was accepted";

  ASSERT_EQ(CheckMutatedSnapshot(DropRecord(bytes, *layout, 1), &code), "");
  EXPECT_NE(code, StatusCode::kOk) << "record drop was accepted";

  ASSERT_EQ(CheckMutatedSnapshot(DuplicateRecord(bytes, *layout, 1), &code),
            "");
  EXPECT_NE(code, StatusCode::kOk) << "record duplication was accepted";
}

TEST(CorruptionHarness, RandomizedMutationSweep10k) {
  // Seeded, deterministic 10k-iteration sweep mixing bit flips, byte
  // overwrites, truncations and insertions. Runs in every build; the Asan
  // preset (which `ctest -L tier1` covers) is the one that would catch a
  // loader overread on these streams.
  const auto bytes = SmallSnapshot();
  Rng rng(20260807);
  size_t rejected = 0;
  size_t accepted = 0;
  for (int iter = 0; iter < 10000; ++iter) {
    std::vector<uint8_t> mutated = bytes;
    const uint64_t kind = rng.NextBounded(4);
    if (kind == 0) {  // flip 1-8 random bits
      const uint64_t flips = 1 + rng.NextBounded(8);
      for (uint64_t f = 0; f < flips; ++f) {
        const size_t bit = rng.NextBounded(mutated.size() * 8);
        mutated[bit / 8] ^= static_cast<uint8_t>(1u << (bit % 8));
      }
    } else if (kind == 1) {  // overwrite 1-4 random bytes
      const uint64_t writes = 1 + rng.NextBounded(4);
      for (uint64_t w = 0; w < writes; ++w) {
        mutated[rng.NextBounded(mutated.size())] =
            static_cast<uint8_t>(rng.NextU64());
      }
    } else if (kind == 2) {  // truncate, maybe after a flip
      if (rng.NextBool(0.5)) {
        const size_t bit = rng.NextBounded(mutated.size() * 8);
        mutated[bit / 8] ^= static_cast<uint8_t>(1u << (bit % 8));
      }
      mutated.resize(rng.NextBounded(mutated.size()));
    } else {  // insert 1-4 random bytes at a random offset
      const uint64_t inserts = 1 + rng.NextBounded(4);
      std::vector<uint8_t> junk;
      for (uint64_t j = 0; j < inserts; ++j) {
        junk.push_back(static_cast<uint8_t>(rng.NextU64()));
      }
      const size_t at = rng.NextBounded(mutated.size() + 1);
      mutated.insert(mutated.begin() + static_cast<long>(at), junk.begin(),
                     junk.end());
    }
    StatusCode code = StatusCode::kOk;
    const std::string failure = CheckMutatedSnapshot(mutated, &code);
    ASSERT_EQ(failure, "") << "iteration " << iter;
    (code == StatusCode::kOk ? accepted : rejected) += 1;
  }
  // Byte overwrites can no-op (same value re-written), so a handful of
  // accepts are legitimate; the overwhelming majority must be rejections.
  EXPECT_EQ(rejected + accepted, 10000u);
  EXPECT_GT(rejected, 9900u) << "accepted " << accepted;
}

TEST(CorruptionHarness, CountMismatchBehindValidChecksumsIsRejected) {
  // Regression for the declared-count cross-check: lie consistently about
  // the entry count in header AND trailer, then repair every CRC so the
  // stream sails through checksum verification — the loader must still
  // reject it by comparing against the rebuilt tree size.
  const PhTree tree = MakeTree(100, 2, 3);
  auto bytes = SerializePhTree(tree);
  const auto layout = DescribeSnapshot(bytes);
  ASSERT_TRUE(layout.has_value());
  // Header entry count lives at offset 26 (magic 4 + len 4 + dim 4 + 13
  // reserved bytes + store_values 1); trailer count at trailer_begin. Bump
  // both from 100 to 101.
  ASSERT_EQ(bytes[26], 100);
  bytes[26] = 101;
  ASSERT_EQ(bytes[layout->trailer_begin], 100);
  bytes[layout->trailer_begin] = 101;
  ASSERT_TRUE(RepairSnapshotChecksums(&bytes));
  const auto result = DeserializePhTreeOr(bytes);
  ASSERT_FALSE(result.has_value());
  EXPECT_EQ(result.error().code(), StatusCode::kCountMismatch)
      << result.error().ToString();
  EXPECT_NE(result.error().ToString().find("101"), std::string::npos);
}

TEST(CorruptionHarness, ErrorsCarryByteOffsets) {
  const auto bytes = SmallSnapshot();
  const auto layout = DescribeSnapshot(bytes);
  ASSERT_TRUE(layout.has_value());
  // A flip inside record 3's payload must be reported at that record's
  // length-field offset with the record index in the message.
  const auto mutated = FlipBit(bytes, layout->records[3].payload_begin * 8);
  const auto result = DeserializePhTreeOr(mutated);
  ASSERT_FALSE(result.has_value());
  const SnapshotError& err = result.error();
  EXPECT_EQ(err.code(), StatusCode::kRecordCorrupt);
  ASSERT_TRUE(err.has_offset());
  EXPECT_EQ(err.offset(), layout->records[3].begin);
  EXPECT_NE(err.message().find("record 3"), std::string::npos)
      << err.ToString();
  EXPECT_NE(err.ToString().find("RECORD_CORRUPT at byte"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Atomic durable saves and the I/O-vs-format error distinction.

class TempFile {
 public:
  explicit TempFile(const std::string& name) : path_("/tmp/" + name) {
    std::remove(path_.c_str());
    std::remove((path_ + ".tmp").c_str());
  }
  ~TempFile() {
    std::remove(path_.c_str());
    std::remove((path_ + ".tmp").c_str());
  }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

TEST(AtomicSave, CrashBetweenWriteAndRenameLeavesOldSnapshotLoadable) {
  TempFile file("phtree_atomic_save_test.bin");
  const PhTree old_tree = MakeTree(300, 2, 1);
  ASSERT_TRUE(SavePhTreeOr(old_tree, file.path()).ok());

  // Simulate a crash mid-save of a newer tree: the .tmp file exists (here:
  // torn — only half the bytes made it) but the rename never happened.
  const PhTree new_tree = MakeTree(400, 2, 2);
  const auto new_bytes = SerializePhTree(new_tree);
  std::FILE* f = std::fopen((file.path() + ".tmp").c_str(), "wb");
  ASSERT_NE(f, nullptr);
  std::fwrite(new_bytes.data(), 1, new_bytes.size() / 2, f);
  std::fclose(f);

  // The published snapshot is untouched by the torn temp file.
  const auto loaded = LoadPhTreeOr(file.path());
  ASSERT_TRUE(loaded.has_value()) << loaded.error().ToString();
  EXPECT_EQ(loaded->size(), old_tree.size());

  // A completed save replaces it atomically and cleans up the temp file.
  ASSERT_TRUE(SavePhTreeOr(new_tree, file.path()).ok());
  const auto reloaded = LoadPhTreeOr(file.path());
  ASSERT_TRUE(reloaded.has_value());
  EXPECT_EQ(reloaded->size(), new_tree.size());
  EXPECT_NE(::access((file.path() + ".tmp").c_str(), F_OK), 0)
      << "temp file left behind after a successful save";
}

TEST(AtomicSave, IoFailuresAreIoErrors) {
  const PhTree tree = MakeTree(10, 2, 5);
  // Unwritable directory (procfs rejects file creation even for root).
  Status st = SavePhTreeOr(tree, "/proc/phtree_corruption_test.bin");
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kIoError) << st.ToString();
  // Missing parent directory.
  st = SavePhTreeOr(tree, "/tmp/phtree_no_such_dir_xyzzy/snap.bin");
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kIoError) << st.ToString();
}

TEST(LoadErrors, IoVersusFormatFailuresAreDistinguished) {
  // Missing file -> I/O error, with the errno text in the message.
  const auto missing = LoadPhTreeOr("/tmp/phtree_does_not_exist_xyzzy.bin");
  ASSERT_FALSE(missing.has_value());
  EXPECT_EQ(missing.error().code(), StatusCode::kIoError);
  EXPECT_NE(missing.error().message().find("No such file"), std::string::npos)
      << missing.error().ToString();

  // A file that exists but was truncated on disk -> format error
  // (kTruncated), NOT an I/O error.
  TempFile file("phtree_truncated_on_disk_test.bin");
  const PhTree tree = MakeTree(300, 2, 9);
  ASSERT_TRUE(SavePhTreeOr(tree, file.path()).ok());
  const auto full = SerializePhTree(tree);
  std::FILE* f = std::fopen(file.path().c_str(), "wb");
  ASSERT_NE(f, nullptr);
  std::fwrite(full.data(), 1, full.size() / 3, f);
  std::fclose(f);
  const auto short_file = LoadPhTreeOr(file.path());
  ASSERT_FALSE(short_file.has_value());
  EXPECT_EQ(short_file.error().code(), StatusCode::kTruncated)
      << short_file.error().ToString();

  // A zero-length file never held a snapshot at all — it is classified as
  // an unusable path (kIoError, like a directory), not a torn format.
  f = std::fopen(file.path().c_str(), "wb");
  ASSERT_NE(f, nullptr);
  std::fclose(f);
  const auto empty = LoadPhTreeOr(file.path());
  ASSERT_FALSE(empty.has_value());
  EXPECT_EQ(empty.error().code(), StatusCode::kIoError);
}

TEST(LoadErrors, ParanoidLoadAcceptsHealthySnapshots) {
  TempFile file("phtree_paranoid_load_test.bin");
  const PhTree tree = MakeTree(500, 3, 11);
  ASSERT_TRUE(SavePhTreeOr(tree, file.path()).ok());
  LoadOptions paranoid;
  paranoid.validate_structure = true;
  const auto loaded = LoadPhTreeOr(file.path(), paranoid);
  ASSERT_TRUE(loaded.has_value()) << loaded.error().ToString();
  EXPECT_EQ(loaded->size(), tree.size());
  EXPECT_EQ(ValidatePhTree(*loaded), "");
}

}  // namespace
}  // namespace phtree
