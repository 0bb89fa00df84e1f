// Tests for the key-only set mode (paper Sect. 3.1 storage model) and the
// serialisation module.
#include <gtest/gtest.h>

#include <bit>
#include <cstdio>
#include <optional>

#include "benchlib/snapshot_fault.h"
#include "common/crc32c.h"
#include "common/rng.h"
#include "datasets/datasets.h"
#include "phtree/phtree_d.h"
#include "phtree/phtree_set.h"
#include "phtree/serialize.h"
#include "phtree/validate.h"
#include "testdata/golden_v2_streams.h"

namespace phtree {
namespace {

TEST(PhTreeSet, BasicSetSemantics) {
  PhTreeSet set(2);
  EXPECT_TRUE(set.Insert(PhKey{1, 2}));
  EXPECT_FALSE(set.Insert(PhKey{1, 2}));
  EXPECT_TRUE(set.Contains(PhKey{1, 2}));
  EXPECT_FALSE(set.Contains(PhKey{2, 1}));
  EXPECT_EQ(set.CountWindow(PhKey{0, 0}, PhKey{9, 9}), 1u);
  EXPECT_TRUE(set.Erase(PhKey{1, 2}));
  EXPECT_EQ(set.size(), 0u);
}

TEST(PhTreeSet, SavesSpaceVsValueTree) {
  // The whole point of set mode: strictly fewer bytes per entry, same shape
  // of all other statistics.
  const Dataset ds = GenerateCube(50000, 3, 42);
  PhTreeD map_tree(3);
  PhTreeConfig set_cfg;
  set_cfg.store_values = false;
  PhTreeD set_tree(3, set_cfg);
  for (size_t i = 0; i < ds.n(); ++i) {
    map_tree.Insert(ds.point(i), i);
    set_tree.Insert(ds.point(i), 0);
  }
  const auto ms = map_tree.ComputeStats();
  const auto ss = set_tree.ComputeStats();
  EXPECT_EQ(ms.n_entries, ss.n_entries);
  EXPECT_EQ(ms.n_nodes, ss.n_nodes);
  EXPECT_EQ(ms.max_depth, ss.max_depth);
  // Close to one 8-byte payload word per entry cheaper. The gap is a bit
  // under 8: rounding each block to whole 16-byte granules absorbs part of
  // the per-node difference, and the BHC packed leaf already strips empty
  // payload slots from the value tree.
  EXPECT_LT(ss.BytesPerEntry() + 6.5, ms.BytesPerEntry());
  EXPECT_EQ(ValidatePhTree(set_tree.tree()), "");
}

TEST(PhTreeSet, WindowQueriesMatchValueTree) {
  const Dataset ds = GenerateCluster(20000, 3, 0.5, 7);
  PhTreeD map_tree(3);
  PhTreeConfig set_cfg;
  set_cfg.store_values = false;
  PhTreeD set_tree(3, set_cfg);
  for (size_t i = 0; i < ds.n(); ++i) {
    map_tree.InsertOrAssign(ds.point(i), i);
    set_tree.InsertOrAssign(ds.point(i), 0);
  }
  Rng rng(8);
  for (int q = 0; q < 20; ++q) {
    const double x = rng.NextDouble(0.0, 0.9);
    const PhKeyD lo{x, 0.0, 0.0};
    const PhKeyD hi{x + 0.05, 1.0, 1.0};
    ASSERT_EQ(map_tree.CountWindow(lo, hi), set_tree.CountWindow(lo, hi));
  }
}

TEST(Serialize, EmptyTreeRoundTrips) {
  PhTree tree(4);
  const auto bytes = SerializePhTree(tree);
  const auto back = DeserializePhTreeOr(bytes);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->size(), 0u);
  EXPECT_EQ(back->dim(), 4u);
}

TEST(Serialize, RoundTripPreservesEntriesAndShape) {
  Rng rng(9);
  PhTree tree(3);
  for (int i = 0; i < 5000; ++i) {
    tree.InsertOrAssign(PhKey{rng.NextU64() & 0xFFFFFF, rng.NextU64(),
                              rng.NextU64() & 0xFF},
                        i);
  }
  const auto bytes = SerializePhTree(tree);
  const auto back = DeserializePhTreeOr(bytes);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->size(), tree.size());
  const auto a = tree.ComputeStats();
  const auto b = back->ComputeStats();
  EXPECT_EQ(a.n_nodes, b.n_nodes);
  EXPECT_EQ(a.memory_bytes, b.memory_bytes);
  // Contents identical.
  tree.ForEach([&](const PhKey& k, uint64_t v) {
    const auto found = back->Find(k);
    ASSERT_TRUE(found.has_value());
    EXPECT_EQ(*found, v);
  });
  EXPECT_EQ(ValidatePhTree(*back), "");
}

TEST(Serialize, GoldenPreRefactorV2StreamsLoadBitIdentically) {
  // Compatibility anchor for node-layout refactors: these two streams were
  // captured byte-for-byte from the pre-BHC build (see
  // testdata/golden_v2_streams.h). The v2 format is entry-wise, so a layout
  // change inside Node must neither reject the old bytes nor change what a
  // re-save of the loaded tree produces.
  const std::vector<uint8_t> golden_value(
      testdata::kGoldenV2Value,
      testdata::kGoldenV2Value + sizeof(testdata::kGoldenV2Value));
  const std::vector<uint8_t> golden_set(
      testdata::kGoldenV2Set,
      testdata::kGoldenV2Set + sizeof(testdata::kGoldenV2Set));

  const auto value_tree = DeserializePhTreeOr(golden_value);
  ASSERT_TRUE(value_tree.has_value());
  EXPECT_EQ(value_tree->dim(), 3u);
  EXPECT_EQ(ValidatePhTree(*value_tree), "");
  // The stream was produced by exactly this insertion sequence; the loaded
  // tree must hold exactly these entries with these payloads.
  {
    Rng rng(77);
    PhTree expect(3);
    for (int i = 0; i < 200; ++i) {
      expect.InsertOrAssign(
          PhKey{rng.NextU64() & 0xFFFFF, rng.NextU64(), rng.NextU64() & 0xFF},
          static_cast<uint64_t>(i));
    }
    EXPECT_EQ(value_tree->size(), expect.size());
    expect.ForEach([&](const PhKey& k, uint64_t v) {
      const auto found = value_tree->Find(k);
      ASSERT_TRUE(found.has_value());
      EXPECT_EQ(*found, v);
    });
  }
  EXPECT_EQ(SerializePhTree(*value_tree), golden_value);

  const auto set_tree = DeserializePhTreeOr(golden_set);
  ASSERT_TRUE(set_tree.has_value());
  EXPECT_EQ(set_tree->dim(), 2u);
  EXPECT_FALSE(set_tree->config().store_values);
  EXPECT_EQ(ValidatePhTree(*set_tree), "");
  {
    Rng rng(78);
    PhTreeConfig cfg;
    cfg.store_values = false;
    PhTree expect(2, cfg);
    for (int i = 0; i < 150; ++i) {
      expect.InsertOrAssign(PhKey{rng.NextU64() & 0xFFFFFF, rng.NextU64()}, 0);
    }
    EXPECT_EQ(set_tree->size(), expect.size());
    expect.ForEach([&](const PhKey& k, uint64_t) {
      EXPECT_TRUE(set_tree->Contains(k));
    });
  }
  EXPECT_EQ(SerializePhTree(*set_tree), golden_set);
}

TEST(Serialize, ZOrderDeltaCompressionBeatsRawDump) {
  // Clustered data yields long shared prefixes -> small deltas.
  const Dataset ds = GenerateCluster(20000, 3, 0.4, 11);
  PhTreeD tree(3);
  for (size_t i = 0; i < ds.n(); ++i) {
    tree.InsertOrAssign(ds.point(i), 0);
  }
  const auto bytes = SerializePhTree(tree.tree());
  const size_t raw = tree.size() * (3 * 8 + 8);  // keys + values
  EXPECT_LT(bytes.size(), raw);
}

TEST(Serialize, RejectsCorruptStreamsWithTypedErrors) {
  PhTree tree(2);
  tree.Insert(PhKey{1, 2}, 3);
  auto bytes = SerializePhTree(tree);
  // Truncation.
  for (size_t cut : {size_t{0}, size_t{3}, bytes.size() / 2,
                     bytes.size() - 1}) {
    std::vector<uint8_t> trunc(bytes.begin(),
                               bytes.begin() + static_cast<long>(cut));
    const auto result = DeserializePhTreeOr(trunc);
    ASSERT_FALSE(result.has_value()) << cut;
    EXPECT_EQ(result.error().code(), StatusCode::kTruncated)
        << cut << ": " << result.error().ToString();
  }
  // Bad magic.
  auto bad = bytes;
  bad[0] = 'X';
  EXPECT_EQ(DeserializePhTreeOr(bad).error().code(), StatusCode::kBadMagic);
  // Unknown version: known "PHT" prefix, unreadable version byte. The
  // retired unchecksummed v1 format is one of them.
  auto bad_version = bytes;
  for (const char version : {'9', '1'}) {
    bad_version[3] = static_cast<uint8_t>(version);
    EXPECT_EQ(DeserializePhTreeOr(bad_version).error().code(),
              StatusCode::kUnsupportedVersion)
        << version;
  }
  // Trailing garbage.
  auto long_stream = bytes;
  long_stream.push_back(0);
  EXPECT_EQ(DeserializePhTreeOr(long_stream).error().code(),
            StatusCode::kTrailerCorrupt);
  // Corrupted header field (the header-length byte) is caught by the
  // header checks even before CRC verification would.
  auto bad_dim = bytes;
  bad_dim[4] = 200;
  EXPECT_EQ(DeserializePhTreeOr(bad_dim).error().code(),
            StatusCode::kHeaderCorrupt);
  // Two adjacent entries swapped behind valid checksums: the loader's
  // z-order check rejects the second of the pair, naming its record and
  // entry. Re-encoding the swapped entries changes their XOR deltas, so
  // the stream is re-written and its CRCs repaired.
  {
    PhTree three(2);
    three.Insert(PhKey{1, 2}, 3);
    three.Insert(PhKey{5, 0}, 4);
    three.Insert(PhKey{9, 9}, 5);
    std::vector<std::pair<PhKey, uint64_t>> z;
    three.ForEach([&](const PhKey& k, uint64_t v) { z.emplace_back(k, v); });
    std::swap(z[1], z[2]);
    SaveOptions two_per_record;
    two_per_record.entries_per_record = 2;
    SnapshotWriter writer(2, /*store_values=*/true, z.size(), two_per_record);
    for (const auto& [k, v] : z) {
      writer.Add(k, v);
    }
    std::vector<uint8_t> swapped = std::move(writer).Finish();
    ASSERT_TRUE(RepairSnapshotChecksums(&swapped));
    const auto result = DeserializePhTreeOr(swapped);
    ASSERT_FALSE(result.has_value());
    EXPECT_EQ(result.error().code(), StatusCode::kRecordCorrupt);
    EXPECT_NE(result.error().message().find("record 1 entry 0 is z-before"),
              std::string::npos)
        << result.error().ToString();
  }
}

TEST(Serialize, RejectsADuplicateKeyBehindValidChecksums) {
  // The writer frames and checksums whatever it is given, so one key added
  // twice makes a stream whose only fault is the repeated key (an all-zero
  // XOR delta).
  SaveOptions one_per_record;
  one_per_record.entries_per_record = 1;
  SnapshotWriter writer(2, /*store_values=*/true, 3, one_per_record);
  writer.Add(PhKey{1, 2}, 3);
  writer.Add(PhKey{5, 0}, 4);
  writer.Add(PhKey{5, 0}, 5);
  const std::vector<uint8_t> bytes = std::move(writer).Finish();
  const auto result = DeserializePhTreeOr(bytes);
  ASSERT_FALSE(result.has_value());
  EXPECT_EQ(result.error().code(), StatusCode::kRecordCorrupt);
  EXPECT_NE(result.error().message().find(
                "record 2 entry 0 duplicates an earlier key"),
            std::string::npos)
      << result.error().ToString();
}

TEST(Serialize, RejectsStrayBytesAfterARecordsLastEntry) {
  // One byte appended to record 0's payload, inside its frame: the length
  // field and every CRC are repaired, so the stream frames and verifies,
  // and only the check that a record ends with its last entry fails.
  PhTree tree(2);
  tree.Insert(PhKey{1, 2}, 3);
  tree.Insert(PhKey{5, 0}, 4);
  std::vector<uint8_t> bytes = SerializePhTree(tree);
  const auto layout = DescribeSnapshot(bytes);
  ASSERT_TRUE(layout.has_value()) << layout.error().ToString();
  const SnapshotLayout::Record& record = layout->records.at(0);
  bytes.insert(bytes.begin() + static_cast<long>(record.crc_offset), 0x00);
  const uint32_t payload_len =
      static_cast<uint32_t>(record.crc_offset + 1 - record.payload_begin);
  for (int i = 0; i < 4; ++i) {
    bytes[record.begin + i] = static_cast<uint8_t>(payload_len >> (8 * i));
  }
  ASSERT_TRUE(RepairSnapshotChecksums(&bytes));
  const auto result = DeserializePhTreeOr(bytes);
  ASSERT_FALSE(result.has_value());
  EXPECT_EQ(result.error().code(), StatusCode::kRecordCorrupt);
  EXPECT_NE(result.error().message().find(
                "record 0 has 1 stray bytes after its last entry"),
            std::string::npos)
      << result.error().ToString();
}

TEST(Serialize, RoundTripsUnderBothMutationPolicies) {
  // The mutation policy (plain, or MVCC) changes how replaced nodes leave
  // the tree, never what the tree holds: the serialised bytes and the
  // round-tripped structure must be identical under both.
  Rng rng(21);
  EpochManager epochs;
  PhTree in_place(3);
  PhTree mvcc(3);
  mvcc.EnableMvcc(&epochs);
  for (int i = 0; i < 3000; ++i) {
    const PhKey key{rng.NextU64() & 0xFFFFF, rng.NextU64(),
                    rng.NextU64() & 0xFFF};
    in_place.InsertOrAssign(key, i);
    mvcc.InsertOrAssign(key, i);
    if (i % 3 == 0) {
      in_place.Erase(key);
      mvcc.Erase(key);
    }
  }
  const auto bytes_in_place = SerializePhTree(in_place);
  const auto bytes_mvcc = SerializePhTree(mvcc);
  EXPECT_EQ(bytes_in_place, bytes_mvcc);

  LoadOptions paranoid;
  paranoid.validate_structure = true;
  auto back = DeserializePhTreeOr(bytes_mvcc, paranoid);
  ASSERT_TRUE(back.has_value()) << back.error().ToString();
  EXPECT_EQ(back->size(), in_place.size());
  const auto a = in_place.ComputeStats();
  const auto b = back->ComputeStats();
  EXPECT_EQ(a.n_nodes, b.n_nodes);
  EXPECT_EQ(a.memory_bytes, b.memory_bytes);
  EXPECT_EQ(ValidatePhTree(*back), "");
  mvcc.ForEach([&](const PhKey& k, uint64_t v) {
    const auto found = back->Find(k);
    ASSERT_TRUE(found.has_value());
    EXPECT_EQ(*found, v);
  });
}

TEST(Serialize, FileRoundTrip) {
  PhTree tree(2);
  Rng rng(12);
  for (int i = 0; i < 500; ++i) {
    tree.InsertOrAssign(PhKey{rng.NextU64(), rng.NextU64()}, i);
  }
  const std::string path = "/tmp/phtree_serialize_test.bin";
  ASSERT_TRUE(SavePhTreeOr(tree, path).ok());
  const auto back = LoadPhTreeOr(path);
  ASSERT_TRUE(back.has_value()) << back.error().ToString();
  EXPECT_EQ(back->size(), tree.size());
  std::remove(path.c_str());
  EXPECT_EQ(LoadPhTreeOr("/tmp/does_not_exist_phtree.bin").error().code(),
            StatusCode::kIoError);
}

TEST(Serialize, ReservedHeaderFieldsAreIgnoredOnLoad) {
  // Header bytes 12-24 are reserved: a policy byte, a double and a u32
  // dimensionality cap. A CRC-valid stream carrying other values there
  // (here: policy 2, 0.5 and a cap of 63, which would let a dim-62 node ask
  // for 2^62 HC slots) loads the same entries under the one representation
  // rule and re-saves to the canonical bytes.
  PhTree tree(62);
  const PhKey a(62, 0);
  const PhKey b(62, ~uint64_t{0});
  ASSERT_TRUE(tree.Insert(a, 1));
  ASSERT_TRUE(tree.Insert(b, 2));
  const std::vector<uint8_t> canonical = SerializePhTree(tree);
  std::vector<uint8_t> crafted = canonical;
  const auto put_le = [&](size_t offset, uint64_t v, int bytes) {
    for (int i = 0; i < bytes; ++i) {
      crafted[offset + i] = static_cast<uint8_t>(v >> (8 * i));
    }
  };
  put_le(12, 2, 1);
  put_le(13, std::bit_cast<uint64_t>(0.5), 8);
  put_le(21, 63, 4);
  ASSERT_TRUE(RepairSnapshotChecksums(&crafted));
  ASSERT_NE(crafted, canonical);

  const auto loaded = DeserializePhTreeOr(crafted);
  ASSERT_TRUE(loaded.has_value()) << loaded.error().ToString();
  EXPECT_EQ(ValidatePhTreeDeep(*loaded), "");
  EXPECT_EQ(loaded->Find(a), std::optional<uint64_t>(1));
  EXPECT_EQ(loaded->Find(b), std::optional<uint64_t>(2));
  EXPECT_EQ(SerializePhTree(*loaded), canonical);

  // The repr byte keeps its range check: no writer ever stored a code
  // above 3. The header CRC (bytes 38-41) is repaired so the check, not the
  // checksum, rejects the stream.
  put_le(12, 4, 1);
  put_le(38, Crc32c(crafted.data(), 38), 4);
  const auto rejected = DeserializePhTreeOr(crafted);
  ASSERT_FALSE(rejected.has_value());
  EXPECT_EQ(rejected.error().code(), StatusCode::kHeaderCorrupt)
      << rejected.error().ToString();
  EXPECT_EQ(rejected.error().offset(), 12u);
}

}  // namespace
}  // namespace phtree
