// WAL format + recovery: writer/replay round-trips, the golden bytes that
// pin the format, the per-byte truncation and per-bit corruption sweeps
// (region -> error-class mapping), resumption after a torn tail or a
// failed append, the cost of an append (heap allocations) and of a
// recovery (file opens), and the crash-point harnesses — FaultyVfs write
// budgets sweep "the process died after byte N of a WAL append / during
// the snapshot rename" and recovery must always yield a clean prefix of
// the applied command sequence.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <iterator>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "common/byte_io.h"
#include "common/crc32c.h"
#include "common/fault.h"
#include "common/vfs.h"
#include "heap_count.h"
#include "phtree/phtree.h"
#include "phtree/serialize.h"
#include "phtree/validate.h"
#include "phtree/wal.h"

namespace phtree {
namespace {

std::string TmpPath(const char* name) {
  return testing::TempDir() + "/" + name;
}

void RemoveFile(const std::string& path) { std::remove(path.c_str()); }

std::vector<uint8_t> ReadBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in),
          std::istreambuf_iterator<char>()};
}

void WriteBytes(const std::string& path, std::span<const uint8_t> bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
}

/// A canned command sequence with every opcode (clear in the middle) plus
/// the oracle map it should produce.
struct Script {
  std::vector<WalCommand> commands;
  std::map<PhKey, uint64_t> expect;  // final state
};

Script MakeScript(uint32_t dim, size_t n) {
  Script s;
  std::map<PhKey, uint64_t> state;
  uint64_t x = 12345;
  const auto next = [&x]() {  // tiny deterministic LCG
    x = x * 6364136223846793005ull + 1442695040888963407ull;
    return x >> 33;
  };
  for (size_t i = 0; i < n; ++i) {
    WalCommand cmd;
    if (i == n / 2) {
      cmd.op = WalOp::kClear;
      state.clear();
    } else {
      cmd.op = static_cast<WalOp>(1 + next() % 3);
      cmd.key.resize(dim);
      for (uint64_t& w : cmd.key) {
        w = next() % 23;  // dense: duplicate inserts and erase hits
      }
      cmd.value = next();
      switch (cmd.op) {
        case WalOp::kInsert:
          state.emplace(cmd.key, cmd.value);
          break;
        case WalOp::kInsertOrAssign:
          state[cmd.key] = cmd.value;
          break;
        case WalOp::kErase:
          state.erase(cmd.key);
          break;
        case WalOp::kClear:
          break;
      }
    }
    s.commands.push_back(cmd);
  }
  s.expect = state;
  return s;
}

/// The oracle state after the first `k` commands of a script.
std::map<PhKey, uint64_t> StateAfter(const Script& s, size_t k) {
  std::map<PhKey, uint64_t> state;
  for (size_t i = 0; i < k; ++i) {
    const WalCommand& cmd = s.commands[i];
    switch (cmd.op) {
      case WalOp::kInsert:
        state.emplace(cmd.key, cmd.value);
        break;
      case WalOp::kInsertOrAssign:
        state[cmd.key] = cmd.value;
        break;
      case WalOp::kErase:
        state.erase(cmd.key);
        break;
      case WalOp::kClear:
        state.clear();
        break;
    }
  }
  return state;
}

std::map<PhKey, uint64_t> TreeState(const PhTree& tree) {
  std::map<PhKey, uint64_t> state;
  tree.ForEach(
      [&state](const PhKey& k, uint64_t v) { state.emplace(k, v); });
  return state;
}

TEST(WalWriter, RoundTripAllOpcodes) {
  const std::string path = TmpPath("wal_roundtrip.wal");
  RemoveFile(path);
  const Script script = MakeScript(/*dim=*/3, /*n=*/60);
  {
    auto writer = WalWriter::Open(path, 3, /*store_values=*/true);
    ASSERT_TRUE(writer) << writer.error().ToString();
    for (const WalCommand& cmd : script.commands) {
      ASSERT_TRUE(writer->Append(cmd).ok());
    }
    EXPECT_EQ(writer->appended(), script.commands.size());
    ASSERT_TRUE(writer->Close().ok());
  }
  PhTree tree(3);
  const auto stats = ReplayWalFile(path, &tree);
  ASSERT_TRUE(stats) << stats.error().ToString();
  EXPECT_EQ(stats->records_applied, script.commands.size());
  EXPECT_FALSE(stats->torn_tail);
  EXPECT_EQ(TreeState(tree), script.expect);
  EXPECT_EQ(ValidatePhTreeDeep(tree), "");
  RemoveFile(path);
}

TEST(WalWriter, ReopenAppendsAndChecksShape) {
  const std::string path = TmpPath("wal_reopen.wal");
  RemoveFile(path);
  {
    auto w = WalWriter::Open(path, 2, true);
    ASSERT_TRUE(w);
    ASSERT_TRUE(w->AppendInsert(PhKey{1, 2}, 10).ok());
    ASSERT_TRUE(w->Close().ok());
  }
  {
    auto w = WalWriter::Open(path, 2, true);  // same shape: append more
    ASSERT_TRUE(w) << w.error().ToString();
    ASSERT_TRUE(w->AppendInsert(PhKey{3, 4}, 11).ok());
    ASSERT_TRUE(w->Close().ok());
  }
  {
    auto w = WalWriter::Open(path, 3, true);  // wrong dim: rejected
    ASSERT_FALSE(w);
    EXPECT_EQ(w.error().code(), StatusCode::kHeaderCorrupt);
  }
  PhTree tree(2);
  const auto stats = ReplayWalFile(path, &tree);
  ASSERT_TRUE(stats);
  EXPECT_EQ(stats->records_applied, 2u);
  EXPECT_EQ(tree.size(), 2u);
  RemoveFile(path);
}

TEST(WalWriter, KeyDimMismatchIsInvalidArgument) {
  const std::string path = TmpPath("wal_baddim.wal");
  RemoveFile(path);
  auto w = WalWriter::Open(path, 2, true);
  ASSERT_TRUE(w);
  EXPECT_EQ(w->AppendInsert(PhKey{1, 2, 3}, 0).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(w->appended(), 0u);
  RemoveFile(path);
}

// ---- Golden bytes ------------------------------------------------------

// Two logs written by an earlier build of the encoder, pinning the format:
// the header and one record of each opcode (an insert follows the clear,
// so the replayed tree is not empty), in value mode and in key-only mode.
constexpr uint8_t kGoldenValueLog[] = {
    0x50, 0x48, 0x57, 0x4c, 0x01, 0x00, 0x00, 0x00, 0x02, 0x00, 0x00, 0x00,
    0x01, 0xf6, 0xb9, 0x45, 0xb3, 0x19, 0x00, 0x00, 0x00, 0x01, 0xef, 0xcd,
    0xab, 0x89, 0x67, 0x45, 0x23, 0x01, 0x07, 0x00, 0x00, 0x00, 0x00, 0x00,
    0x00, 0x00, 0x88, 0x77, 0x66, 0x55, 0x44, 0x33, 0x22, 0x11, 0x79, 0x77,
    0x08, 0x42, 0x19, 0x00, 0x00, 0x00, 0x02, 0xef, 0xcd, 0xab, 0x89, 0x67,
    0x45, 0x23, 0x01, 0x07, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x2a,
    0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x4f, 0x53, 0x67, 0xce, 0x19,
    0x00, 0x00, 0x00, 0x01, 0x05, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
    0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x09, 0x00, 0x00, 0x00,
    0x00, 0x00, 0x00, 0x00, 0x03, 0x07, 0x3a, 0x09, 0x11, 0x00, 0x00, 0x00,
    0x03, 0xef, 0xcd, 0xab, 0x89, 0x67, 0x45, 0x23, 0x01, 0x07, 0x00, 0x00,
    0x00, 0x00, 0x00, 0x00, 0x00, 0x67, 0x99, 0x77, 0x28, 0x01, 0x00, 0x00,
    0x00, 0x04, 0x4e, 0xc4, 0xe7, 0x95, 0x19, 0x00, 0x00, 0x00, 0x01, 0x03,
    0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x04, 0x00, 0x00, 0x00, 0x00,
    0x00, 0x00, 0x00, 0xab, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xdb,
    0x99, 0xc3, 0x9e,
};
constexpr uint8_t kGoldenKeyOnlyLog[] = {
    0x50, 0x48, 0x57, 0x4c, 0x01, 0x00, 0x00, 0x00, 0x02, 0x00, 0x00, 0x00,
    0x00, 0xf5, 0x3a, 0x2e, 0x41, 0x11, 0x00, 0x00, 0x00, 0x01, 0xef, 0xcd,
    0xab, 0x89, 0x67, 0x45, 0x23, 0x01, 0x07, 0x00, 0x00, 0x00, 0x00, 0x00,
    0x00, 0x00, 0xd9, 0x21, 0xbe, 0x97, 0x11, 0x00, 0x00, 0x00, 0x02, 0xef,
    0xcd, 0xab, 0x89, 0x67, 0x45, 0x23, 0x01, 0x07, 0x00, 0x00, 0x00, 0x00,
    0x00, 0x00, 0x00, 0x38, 0x45, 0x93, 0x77, 0x11, 0x00, 0x00, 0x00, 0x01,
    0x05, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xff, 0xff, 0xff, 0xff,
    0xff, 0xff, 0xff, 0xff, 0xee, 0x27, 0x4e, 0x75, 0x11, 0x00, 0x00, 0x00,
    0x03, 0xef, 0xcd, 0xab, 0x89, 0x67, 0x45, 0x23, 0x01, 0x07, 0x00, 0x00,
    0x00, 0x00, 0x00, 0x00, 0x00, 0x67, 0x99, 0x77, 0x28, 0x01, 0x00, 0x00,
    0x00, 0x04, 0x4e, 0xc4, 0xe7, 0x95, 0x11, 0x00, 0x00, 0x00, 0x01, 0x03,
    0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x04, 0x00, 0x00, 0x00, 0x00,
    0x00, 0x00, 0x00, 0x28, 0x9d, 0xec, 0xb7,
};

/// The commands the golden logs hold (dim 2).
std::vector<WalCommand> GoldenCommands() {
  const PhKey a{0x0123456789ABCDEFull, 7};
  return {
      {WalOp::kInsert, a, 0x1122334455667788ull},
      {WalOp::kInsertOrAssign, a, 42},
      {WalOp::kInsert, {5, ~uint64_t{0}}, 9},
      {WalOp::kErase, a, 0},
      {WalOp::kClear, {}, 0},
      {WalOp::kInsert, {3, 4}, 0xAB},
  };
}

TEST(WalGolden, EncoderWriterAndReplayMatchTheCapturedBytes) {
  const std::string path = TmpPath("wal_golden.wal");
  for (const bool store_values : {true, false}) {
    SCOPED_TRACE(store_values ? "value mode" : "key-only mode");
    const std::span<const uint8_t> golden =
        store_values ? std::span<const uint8_t>(kGoldenValueLog)
                     : std::span<const uint8_t>(kGoldenKeyOnlyLog);
    const std::vector<uint8_t> want(golden.begin(), golden.end());
    const std::vector<WalCommand> commands = GoldenCommands();

    std::vector<uint8_t> encoded;
    EncodeWalHeader(2, store_values, &encoded);
    for (const WalCommand& cmd : commands) {
      EncodeWalRecord(cmd, 2, store_values, &encoded);
    }
    EXPECT_EQ(encoded, want) << "EncodeWalRecord";

    RemoveFile(path);
    {
      auto w = WalWriter::Open(path, 2, store_values);
      ASSERT_TRUE(w) << w.error().ToString();
      for (const WalCommand& cmd : commands) {
        ASSERT_TRUE(w->Append(cmd).ok());
      }
      ASSERT_TRUE(w->Close().ok());
    }
    EXPECT_EQ(ReadBytes(path), want) << "WalWriter::Append";

    RemoveFile(path);
    {
      auto w = WalWriter::Open(path, 2, store_values);
      ASSERT_TRUE(w) << w.error().ToString();
      for (const WalCommand& cmd : commands) {
        Status st;
        switch (cmd.op) {
          case WalOp::kInsert: st = w->AppendInsert(cmd.key, cmd.value); break;
          case WalOp::kInsertOrAssign:
            st = w->AppendInsertOrAssign(cmd.key, cmd.value);
            break;
          case WalOp::kErase: st = w->AppendErase(cmd.key); break;
          case WalOp::kClear: st = w->AppendClear(); break;
        }
        ASSERT_TRUE(st.ok()) << st.ToString();
      }
      ASSERT_TRUE(w->Close().ok());
    }
    EXPECT_EQ(ReadBytes(path), want) << "WalWriter::Append<Op>";

    PhTreeConfig config;
    config.store_values = store_values;
    PhTree tree(2, config);
    const auto stats = ReplayWal(golden, &tree);
    ASSERT_TRUE(stats) << stats.error().ToString();
    EXPECT_EQ(stats->records_applied, commands.size());
    EXPECT_EQ(stats->valid_bytes, golden.size());
    EXPECT_FALSE(stats->torn_tail);
    const std::map<PhKey, uint64_t> expect{
        {PhKey{3, 4}, store_values ? uint64_t{0xAB} : uint64_t{0}}};
    EXPECT_EQ(TreeState(tree), expect);
  }
  RemoveFile(path);
}

// ---- Resumption ---------------------------------------------------------

// A crash tore the third record. Reopening must cut the torn bytes before
// appending: replay stops at them, so records appended behind them would
// be acknowledged and then lost.
TEST(WalWriter, ReopenCutsTornTailBeforeAppending) {
  const std::string path = TmpPath("wal_torn_reopen.wal");
  std::vector<uint8_t> bytes;
  EncodeWalHeader(2, true, &bytes);
  for (uint64_t i = 0; i < 3; ++i) {
    EncodeWalRecord({WalOp::kInsert, PhKey{i, i}, i}, 2, true, &bytes);
  }
  bytes.resize(bytes.size() - 10);  // the third record loses its tail
  WriteBytes(path, bytes);
  {
    auto w = WalWriter::Open(path, 2, true);
    ASSERT_TRUE(w) << w.error().ToString();
    for (uint64_t i = 10; i < 20; ++i) {
      ASSERT_TRUE(w->AppendInsert(PhKey{i, i}, i).ok());
    }
    ASSERT_TRUE(w->Close().ok());
  }
  PhTree tree(2);
  const auto stats = ReplayWalFile(path, &tree);
  ASSERT_TRUE(stats) << stats.error().ToString();
  EXPECT_EQ(stats->records_applied, 12u);
  EXPECT_FALSE(stats->torn_tail) << stats->tail_detail;
  EXPECT_EQ(tree.size(), 12u);
  EXPECT_TRUE(tree.Contains(PhKey{19, 19}));
  EXPECT_FALSE(tree.Contains(PhKey{2, 2}));
  RemoveFile(path);
}

// An append that fails part-way (two short writes, then ENOSPC) leaves a
// torn record in the file. The writer must refuse to append behind it
// until the log is reopened, which cuts it.
TEST(WalWriter, FailedAppendPoisonsTheWriterUntilReopen) {
  const std::string path = TmpPath("wal_poisoned.wal");
  RemoveFile(path);
  auto w = WalWriter::Open(path, 2, true);
  ASSERT_TRUE(w) << w.error().ToString();
  ASSERT_TRUE(w->AppendInsert(PhKey{1, 1}, 1).ok());
  ASSERT_TRUE(w->AppendInsert(PhKey{2, 2}, 2).ok());

  FaultInjector inj;
  SetFaultInjector(&inj);
  FaultyVfs vfs;
  {
    ScopedVfs scoped(&vfs);
    vfs.set_short_write_cap(5);
    inj.ArmCountdown(FaultSite::kVfsWrite, 3);
    const Status failed = w->AppendInsert(PhKey{3, 3}, 3);
    EXPECT_EQ(failed.code(), StatusCode::kIoError);
    EXPECT_TRUE(inj.fired());
  }
  SetFaultInjector(nullptr);
  EXPECT_GT(ReadBytes(path).size(), kWalHeaderLen + 2 * 33u);  // torn bytes

  EXPECT_EQ(w->AppendInsert(PhKey{4, 4}, 4).code(), StatusCode::kIoError);
  EXPECT_EQ(w->AppendClear().code(), StatusCode::kIoError);
  EXPECT_EQ(w->Sync().code(), StatusCode::kIoError);
  EXPECT_EQ(w->appended(), 2u);
  EXPECT_FALSE(w->Close().ok());

  {
    auto reopened = WalWriter::Open(path, 2, true);
    ASSERT_TRUE(reopened) << reopened.error().ToString();
    ASSERT_TRUE(reopened->AppendInsert(PhKey{4, 4}, 4).ok());
    ASSERT_TRUE(reopened->Close().ok());
  }
  PhTree tree(2);
  const auto stats = ReplayWalFile(path, &tree);
  ASSERT_TRUE(stats) << stats.error().ToString();
  EXPECT_EQ(stats->records_applied, 3u);
  EXPECT_FALSE(stats->torn_tail) << stats->tail_detail;
  const std::map<PhKey, uint64_t> expect{
      {PhKey{1, 1}, 1}, {PhKey{2, 2}, 2}, {PhKey{4, 4}, 4}};
  EXPECT_EQ(TreeState(tree), expect);
  RemoveFile(path);
}

// ---- Cost ---------------------------------------------------------------

TEST(WalWriter, SteadyStateAppendsDoNotAllocate) {
  const std::string path = TmpPath("wal_allocs.wal");
  RemoveFile(path);
  WalOptions options;
  options.sync_every_n = 0;
  auto w = WalWriter::Open(path, 3, true, options);
  ASSERT_TRUE(w) << w.error().ToString();
  const PhKey key{1, 2, 3};
  ASSERT_TRUE(w->AppendInsert(key, 0).ok());  // warm-up
  ASSERT_TRUE(w->AppendErase(key).ok());
  bool ok = true;
  const uint64_t before = testing_heap::HeapAllocs();
  for (uint64_t i = 0; i < 100; ++i) {
    ok &= w->AppendInsert(key, i).ok();
    ok &= w->AppendErase(key).ok();
  }
  ok &= w->Sync().ok();
  const uint64_t allocs = testing_heap::HeapAllocs() - before;
  EXPECT_TRUE(ok);
  EXPECT_EQ(allocs, 0u) << "heap allocations in 200 appends and a sync";
  ASSERT_TRUE(w->Close().ok());
  RemoveFile(path);
}

/// Builds an in-memory log and the byte offset where each record starts.
std::vector<uint8_t> EncodeScript(const Script& script, uint32_t dim,
                                  std::vector<size_t>* record_starts) {
  std::vector<uint8_t> bytes;
  EncodeWalHeader(dim, true, &bytes);
  for (const WalCommand& cmd : script.commands) {
    record_starts->push_back(bytes.size());
    EncodeWalRecord(cmd, dim, true, &bytes);
  }
  return bytes;
}

// Per-byte truncation sweep: every prefix of the log must either fail with
// a typed header error (cut inside the header) or replay exactly the
// records wholly contained in it, flagging a torn tail iff the cut is not
// on a record boundary.
TEST(WalReplay, TruncationSweepEveryByte) {
  const uint32_t dim = 2;
  const Script script = MakeScript(dim, 24);
  std::vector<size_t> starts;
  const std::vector<uint8_t> bytes = EncodeScript(script, dim, &starts);
  starts.push_back(bytes.size());  // sentinel: end is also a boundary

  for (size_t cut = 0; cut <= bytes.size(); ++cut) {
    const std::span<const uint8_t> prefix(bytes.data(), cut);
    PhTree tree(dim);
    const auto stats = ReplayWal(prefix, &tree);
    if (cut < kWalHeaderLen) {
      ASSERT_FALSE(stats) << "cut " << cut;
      EXPECT_EQ(stats.error().code(), StatusCode::kTruncated) << "cut " << cut;
      continue;
    }
    ASSERT_TRUE(stats) << "cut " << cut << ": " << stats.error().ToString();
    // Records wholly inside the prefix.
    size_t whole = 0;
    while (whole < script.commands.size() && starts[whole + 1] <= cut) {
      ++whole;
    }
    EXPECT_EQ(stats->records_applied, whole) << "cut " << cut;
    EXPECT_EQ(stats->valid_bytes, starts[whole]) << "cut " << cut;
    const bool on_boundary = cut == starts[whole];
    EXPECT_EQ(stats->torn_tail, !on_boundary) << "cut " << cut;
    EXPECT_EQ(TreeState(tree), StateAfter(script, whole)) << "cut " << cut;
    EXPECT_EQ(ValidatePhTreeDeep(tree), "") << "cut " << cut;
  }
}

// Per-bit corruption sweep: flipping any single bit must map cleanly by
// region — header damage is a hard typed error; record damage truncates
// replay at that record (CRC32C catches every single-bit error), keeping
// everything before it.
TEST(WalReplay, BitFlipSweepEveryBit) {
  const uint32_t dim = 2;
  const Script script = MakeScript(dim, 12);
  std::vector<size_t> starts;
  const std::vector<uint8_t> base = EncodeScript(script, dim, &starts);
  starts.push_back(base.size());

  for (size_t bit = 0; bit < base.size() * 8; ++bit) {
    std::vector<uint8_t> bytes = base;
    bytes[bit / 8] ^= static_cast<uint8_t>(1u << (bit % 8));
    PhTree tree(dim);
    const auto stats = ReplayWal(bytes, &tree);
    const size_t at = bit / 8;
    if (at < kWalHeaderLen) {
      // Header region: magic -> kBadMagic, version -> kUnsupportedVersion
      // or CRC, everything else -> CRC/range. Always a hard error.
      ASSERT_FALSE(stats) << "bit " << bit;
      const StatusCode code = stats.error().code();
      EXPECT_TRUE(code == StatusCode::kBadMagic ||
                  code == StatusCode::kUnsupportedVersion ||
                  code == StatusCode::kHeaderCorrupt)
          << "bit " << bit << ": " << stats.error().ToString();
      continue;
    }
    // Record region: replay keeps every record before the damaged one and
    // reports a torn tail there (a flipped length field may also claim an
    // implausible size — same class, same truncation point).
    size_t damaged = 0;
    while (starts[damaged + 1] <= at) {
      ++damaged;
    }
    ASSERT_TRUE(stats) << "bit " << bit << ": " << stats.error().ToString();
    EXPECT_TRUE(stats->torn_tail) << "bit " << bit;
    EXPECT_EQ(stats->records_applied, damaged) << "bit " << bit;
    EXPECT_EQ(stats->valid_bytes, starts[damaged]) << "bit " << bit;
    EXPECT_EQ(TreeState(tree), StateAfter(script, damaged)) << "bit " << bit;
  }
}

TEST(WalReplay, CrcValidGarbageIsHardError) {
  const uint32_t dim = 2;
  std::vector<uint8_t> bytes;
  EncodeWalHeader(dim, true, &bytes);
  // A record that frames and checksums correctly but carries an unknown
  // opcode: a crash cannot produce this, so it is kRecordCorrupt, not a
  // torn tail.
  WalCommand cmd;
  cmd.op = WalOp::kClear;
  EncodeWalRecord(cmd, dim, true, &bytes);
  bytes[bytes.size() - 5] = 99;  // payload byte (opcode) of the clear
  // Re-checksum the 1-byte payload so the CRC still verifies.
  const uint8_t opcode = 99;
  const uint32_t crc = Crc32c(&opcode, 1);
  for (int i = 0; i < 4; ++i) {
    bytes[bytes.size() - 4 + i] = static_cast<uint8_t>(crc >> (8 * i));
  }
  PhTree tree(dim);
  const auto stats = ReplayWal(bytes, &tree);
  ASSERT_FALSE(stats);
  EXPECT_EQ(stats.error().code(), StatusCode::kRecordCorrupt);
}

/// A WAL header for `dim` with the u32 at `offset` replaced by `value` and
/// its CRC repaired, so only the field checks behind the CRC can reject it.
std::vector<uint8_t> HeaderWithField(uint32_t dim, size_t offset,
                                     uint32_t value) {
  std::vector<uint8_t> bytes;
  EncodeWalHeader(dim, true, &bytes);
  for (int i = 0; i < 4; ++i) {
    bytes[offset + i] = static_cast<uint8_t>(value >> (8 * i));
  }
  const uint32_t crc = Crc32c(bytes.data(), kWalHeaderLen - 4);
  for (int i = 0; i < 4; ++i) {
    bytes[kWalHeaderLen - 4 + i] = static_cast<uint8_t>(crc >> (8 * i));
  }
  return bytes;
}

TEST(WalReplay, UnsupportedVersionBehindAValidHeaderCrc) {
  const std::vector<uint8_t> bytes = HeaderWithField(2, 4, kWalVersion + 1);
  PhTree tree(2);
  const auto stats = ReplayWal(bytes, &tree);
  ASSERT_FALSE(stats);
  EXPECT_EQ(stats.error().code(), StatusCode::kUnsupportedVersion);
  EXPECT_NE(stats.error().message().find(
                "WAL version " + std::to_string(kWalVersion + 1) +
                " is not readable by this build"),
            std::string::npos)
      << stats.error().ToString();
}

TEST(WalReplay, OutOfRangeDimensionalityBehindAValidHeaderCrc) {
  for (const uint32_t dim : {0u, kMaxDims + 1}) {
    const std::vector<uint8_t> bytes = HeaderWithField(2, 8, dim);
    PhTree tree(2);
    const auto stats = ReplayWal(bytes, &tree);
    ASSERT_FALSE(stats) << dim;
    EXPECT_EQ(stats.error().code(), StatusCode::kHeaderCorrupt) << dim;
    const std::string want = "WAL dimensionality " + std::to_string(dim) +
                             " outside [1, " + std::to_string(kMaxDims) + "]";
    EXPECT_NE(stats.error().message().find(want), std::string::npos)
        << stats.error().ToString();
  }
}

TEST(WalReplay, PayloadLengthDisagreeingWithOpcodeIsHardError) {
  // A clear's one-byte payload relabelled as an erase, which needs the
  // opcode and a key: the frame and its CRC verify, so this is no torn
  // tail but a record no writer produces.
  const uint32_t dim = 2;
  std::vector<uint8_t> bytes;
  EncodeWalHeader(dim, true, &bytes);
  WalCommand cmd;
  cmd.op = WalOp::kClear;
  const size_t record = bytes.size();
  EncodeWalRecord(cmd, dim, true, &bytes);
  const uint8_t erase = static_cast<uint8_t>(WalOp::kErase);
  bytes[record + 4] = erase;
  SealFrame(bytes.data() + record, 1);
  PhTree tree(dim);
  const auto stats = ReplayWal(bytes, &tree);
  ASSERT_FALSE(stats);
  EXPECT_EQ(stats.error().code(), StatusCode::kRecordCorrupt);
  EXPECT_NE(stats.error().message().find(
                "WAL record payload is 1 bytes, opcode " +
                std::to_string(erase) + " needs " +
                std::to_string(1 + dim * 8)),
            std::string::npos)
      << stats.error().ToString();
}

TEST(WalReplay, ShapeMismatchRejected) {
  std::vector<uint8_t> bytes;
  EncodeWalHeader(3, true, &bytes);
  PhTree tree(2);  // wrong dim
  const auto stats = ReplayWal(bytes, &tree);
  ASSERT_FALSE(stats);
  EXPECT_EQ(stats.error().code(), StatusCode::kHeaderCorrupt);
}

// ---- RecoverPhTree ------------------------------------------------------

TEST(Recover, SnapshotPlusWal) {
  const std::string snap = TmpPath("rec_snap.phtree");
  const std::string wal = TmpPath("rec_snap.wal");
  RemoveFile(snap);
  RemoveFile(wal);
  const Script script = MakeScript(3, 40);
  // First half is snapshotted; second half lives only in the WAL.
  PhTree tree(3);
  const size_t half = script.commands.size() / 2;
  for (size_t i = 0; i < half; ++i) {
    const WalCommand& c = script.commands[i];
    switch (c.op) {
      case WalOp::kInsert: tree.Insert(c.key, c.value); break;
      case WalOp::kInsertOrAssign: tree.InsertOrAssign(c.key, c.value); break;
      case WalOp::kErase: tree.Erase(c.key); break;
      case WalOp::kClear: tree.Clear(); break;
    }
  }
  ASSERT_TRUE(SavePhTreeOr(tree, snap).ok());
  {
    auto w = WalWriter::Open(wal, 3, true);
    ASSERT_TRUE(w);
    for (size_t i = half; i < script.commands.size(); ++i) {
      ASSERT_TRUE(w->Append(script.commands[i]).ok());
    }
    ASSERT_TRUE(w->Close().ok());
  }
  WalReplayStats stats;
  auto recovered = RecoverPhTree(snap, wal, {}, &stats);
  ASSERT_TRUE(recovered) << recovered.error().ToString();
  EXPECT_EQ(stats.records_applied, script.commands.size() - half);
  EXPECT_EQ(TreeState(*recovered), script.expect);
  EXPECT_EQ(ValidatePhTreeDeep(*recovered), "");
  RemoveFile(snap);
  RemoveFile(wal);
}

TEST(Recover, WalOnlyAndMissingEverything) {
  const std::string snap = TmpPath("rec_missing.phtree");
  const std::string wal = TmpPath("rec_missing.wal");
  RemoveFile(snap);
  RemoveFile(wal);
  // Both missing: a typed error, not a silent empty tree.
  auto none = RecoverPhTree(snap, wal);
  ASSERT_FALSE(none);
  EXPECT_EQ(none.error().code(), StatusCode::kIoError);
  // WAL only: the header shapes the tree.
  const Script script = MakeScript(2, 30);
  {
    auto w = WalWriter::Open(wal, 2, true);
    ASSERT_TRUE(w);
    for (const WalCommand& c : script.commands) {
      ASSERT_TRUE(w->Append(c).ok());
    }
    ASSERT_TRUE(w->Close().ok());
  }
  auto recovered = RecoverPhTree(snap, wal);
  ASSERT_TRUE(recovered) << recovered.error().ToString();
  EXPECT_EQ(recovered->dim(), 2u);
  EXPECT_EQ(TreeState(*recovered), script.expect);
  RemoveFile(wal);
}

TEST(Recover, ZeroLengthWalIsAbsent) {
  const std::string snap = TmpPath("rec_zero.phtree");
  const std::string wal = TmpPath("rec_zero.wal");
  PhTree tree(2);
  tree.Insert(PhKey{1, 2}, 3);
  ASSERT_TRUE(SavePhTreeOr(tree, snap).ok());
  { std::fclose(std::fopen(wal.c_str(), "wb")); }  // 0 bytes: pre-header crash
  auto recovered = RecoverPhTree(snap, wal);
  ASSERT_TRUE(recovered) << recovered.error().ToString();
  EXPECT_EQ(recovered->size(), 1u);
  RemoveFile(snap);
  RemoveFile(wal);
}

// A crash inside Open's 17-byte header write leaves a log shorter than its
// header. No record can follow a torn header, so recovery treats the log
// as absent (the snapshot alone), and Open starts it over. ReplayWal
// still rejects the bytes as a truncated header.
TEST(Recover, TornHeaderWalIsAbsentAndReopens) {
  const std::string snap = TmpPath("rec_torn_header.phtree");
  const std::string wal = TmpPath("rec_torn_header.wal");
  PhTree tree(2);
  tree.Insert(PhKey{1, 2}, 3);
  ASSERT_TRUE(SavePhTreeOr(tree, snap).ok());
  std::vector<uint8_t> header;
  EncodeWalHeader(2, true, &header);
  header.resize(9);
  WriteBytes(wal, header);

  PhTree probe(2);
  const auto replayed = ReplayWal(header, &probe);
  ASSERT_FALSE(replayed);
  EXPECT_EQ(replayed.error().code(), StatusCode::kTruncated);

  WalReplayStats stats;
  auto recovered = RecoverPhTree(snap, wal, {}, &stats);
  ASSERT_TRUE(recovered) << recovered.error().ToString();
  EXPECT_EQ(TreeState(*recovered), TreeState(tree));
  EXPECT_EQ(stats.records_applied, 0u);

  {
    auto w = WalWriter::Open(wal, 2, true);
    ASSERT_TRUE(w) << w.error().ToString();
    ASSERT_TRUE(w->AppendInsert(PhKey{5, 6}, 7).ok());
    ASSERT_TRUE(w->Close().ok());
  }
  recovered = RecoverPhTree(snap, wal, {}, &stats);
  ASSERT_TRUE(recovered) << recovered.error().ToString();
  EXPECT_EQ(stats.records_applied, 1u);
  const std::map<PhKey, uint64_t> expect{{PhKey{1, 2}, 3}, {PhKey{5, 6}, 7}};
  EXPECT_EQ(TreeState(*recovered), expect);
  RemoveFile(snap);
  RemoveFile(wal);
}

/// Forwards to the host file system, counting Open calls.
class OpenCountingVfs : public Vfs {
 public:
  int opens = 0;

  int Open(const char* path, int flags, mode_t mode) override {
    ++opens;
    return real_.Open(path, flags, mode);
  }
  ssize_t Read(int fd, void* buf, size_t n) override {
    return real_.Read(fd, buf, n);
  }
  ssize_t Write(int fd, const void* buf, size_t n) override {
    return real_.Write(fd, buf, n);
  }
  int Fsync(int fd) override { return real_.Fsync(fd); }
  int Close(int fd) override { return real_.Close(fd); }
  int Rename(const char* from, const char* to) override {
    return real_.Rename(from, to);
  }
  int Unlink(const char* path) override { return real_.Unlink(path); }
  off_t Seek(int fd, off_t offset, int whence) override {
    return real_.Seek(fd, offset, whence);
  }
  int Stat(int fd, uint64_t* size, bool* is_dir) override {
    return real_.Stat(fd, size, is_dir);
  }

 private:
  RealVfs real_;
};

// Recovery reads each file once: one Open per file, whether the snapshot
// exists or not.
TEST(Recover, OpensEachFileOnce) {
  const std::string snap = TmpPath("rec_opens.phtree");
  const std::string wal = TmpPath("rec_opens.wal");
  RemoveFile(snap);
  RemoveFile(wal);
  PhTree tree(2);
  tree.Insert(PhKey{1, 2}, 3);
  ASSERT_TRUE(SavePhTreeOr(tree, snap).ok());
  {
    auto w = WalWriter::Open(wal, 2, true);
    ASSERT_TRUE(w);
    ASSERT_TRUE(w->AppendInsert(PhKey{4, 5}, 6).ok());
    ASSERT_TRUE(w->Close().ok());
  }
  for (const bool with_snapshot : {true, false}) {
    if (!with_snapshot) {
      RemoveFile(snap);
    }
    OpenCountingVfs vfs;
    {
      ScopedVfs scoped(&vfs);
      auto recovered = RecoverPhTree(snap, wal);
      ASSERT_TRUE(recovered) << recovered.error().ToString();
      EXPECT_EQ(recovered->size(), with_snapshot ? 2u : 1u);
    }
    EXPECT_EQ(vfs.opens, 2) << (with_snapshot ? "snapshot + WAL" : "WAL only");
  }
  RemoveFile(wal);
}

// ---- Crash points -------------------------------------------------------

// Sweep "the process died after byte N of appending to the WAL": for every
// budget N the file holds some prefix of the record stream plus at most one
// torn record (or, below the header length, a torn header), and recovery
// must yield exactly the state after the records that fully reached disk.
// An empty tree's snapshot sits next to the log, so a torn header leaves a
// recoverable state too. Reopening the log then resumes it: one more
// record must replay behind the surviving ones.
TEST(CrashPoint, WalAppendSweep) {
  const uint32_t dim = 2;
  const Script script = MakeScript(dim, 20);
  std::vector<size_t> starts;
  const std::vector<uint8_t> full = EncodeScript(script, dim, &starts);
  starts.push_back(full.size());
  const std::string wal = TmpPath("crash_append.wal");
  const std::string snap = TmpPath("crash_append.phtree");
  ASSERT_TRUE(SavePhTreeOr(PhTree(dim), snap).ok());

  // Budgets stepping through the header, every record boundary and several
  // mid-record cuts (every 3 bytes keeps the sweep fast but hits all three
  // torn cases: torn length, torn body, torn CRC).
  for (size_t budget = 0; budget <= full.size(); budget += 3) {
    RemoveFile(wal);
    {
      FaultyVfs vfs;
      ScopedVfs scoped(&vfs);
      vfs.SetWriteBudget(budget);
      auto w = WalWriter::Open(wal, dim, true);
      // A writer that died inside the header write has nothing to append.
      for (size_t i = 0; w && i < script.commands.size(); ++i) {
        if (!w->Append(script.commands[i]).ok()) {
          break;  // the "process" is dead; later appends fail too
        }
      }
      // No Close(): the crash takes the fd with it.
    }
    WalReplayStats stats;
    auto recovered = RecoverPhTree(snap, wal, {}, &stats);
    ASSERT_TRUE(recovered)
        << "budget " << budget << ": " << recovered.error().ToString();
    // The file is a prefix of the canonical stream; whatever number of
    // whole records made it, the tree must equal that exact prefix state.
    const size_t applied = static_cast<size_t>(stats.records_applied);
    ASSERT_LE(applied, script.commands.size());
    EXPECT_EQ(TreeState(*recovered), StateAfter(script, applied))
        << "budget " << budget;
    EXPECT_EQ(ValidatePhTreeDeep(*recovered), "") << "budget " << budget;
    // And the number of whole records matches the budget's boundary.
    size_t whole = 0;
    while (whole < script.commands.size() && starts[whole + 1] <= budget) {
      ++whole;
    }
    EXPECT_EQ(applied, whole) << "budget " << budget;

    // Resumption: the reopened log takes the next command behind the
    // surviving records, and recovery replays it.
    if (whole < script.commands.size()) {
      auto w = WalWriter::Open(wal, dim, true);
      ASSERT_TRUE(w) << "budget " << budget << ": " << w.error().ToString();
      ASSERT_TRUE(w->Append(script.commands[whole]).ok());
      ASSERT_TRUE(w->Close().ok());
      auto resumed = RecoverPhTree(snap, wal, {}, &stats);
      ASSERT_TRUE(resumed)
          << "budget " << budget << ": " << resumed.error().ToString();
      EXPECT_EQ(stats.records_applied, whole + 1) << "budget " << budget;
      EXPECT_FALSE(stats.torn_tail) << "budget " << budget;
      EXPECT_EQ(TreeState(*resumed), StateAfter(script, whole + 1))
          << "budget " << budget;
    }
  }
  RemoveFile(wal);
  RemoveFile(wal + ".tmp");  // a header write torn before its rename
  RemoveFile(snap);
}

// "The process died during the snapshot rewrite": the atomic tmp+rename
// save either fully replaces the snapshot or leaves the old one intact, so
// recovery (snapshot + unchanged WAL) never sees a half-written file.
TEST(CrashPoint, SnapshotRewriteSweep) {
  const std::string snap = TmpPath("crash_snap.phtree");
  const std::string wal = TmpPath("crash_snap.wal");
  RemoveFile(snap);
  RemoveFile(wal);
  PhTree v1(2);
  for (uint64_t i = 0; i < 40; ++i) {
    v1.Insert(PhKey{i, i * 7}, i);
  }
  ASSERT_TRUE(SavePhTreeOr(v1, snap).ok());
  PhTree v2(2);
  for (uint64_t i = 0; i < 80; ++i) {
    v2.Insert(PhKey{i * 3, i}, i + 1);
  }
  const std::vector<uint8_t> v2_bytes = SerializePhTree(v2);

  size_t replaced = 0;
  size_t preserved = 0;
  for (size_t budget = 0; budget <= v2_bytes.size() + 8; budget += 7) {
    FaultyVfs vfs;
    {
      ScopedVfs scoped(&vfs);
      vfs.SetWriteBudget(budget);
      (void)SavePhTreeOr(v2, snap);  // may "crash" mid-write or mid-rename
    }
    auto recovered = RecoverPhTree(snap, wal);
    ASSERT_TRUE(recovered)
        << "budget " << budget << ": " << recovered.error().ToString();
    const size_t n = recovered->size();
    ASSERT_TRUE(n == v1.size() || n == v2.size()) << "budget " << budget;
    if (n == v2.size()) {
      ++replaced;
    } else {
      ++preserved;
    }
    EXPECT_EQ(ValidatePhTreeDeep(*recovered), "") << "budget " << budget;
    if (n == v2.size()) {
      // Reset to v1 so every budget starts from the same old snapshot.
      ASSERT_TRUE(SavePhTreeOr(v1, snap).ok());
    }
  }
  EXPECT_GT(preserved, 0u);  // small budgets must keep the old snapshot
  EXPECT_GT(replaced, 0u);   // large budgets complete the rewrite
  RemoveFile(snap);
}

// Injected rename failure during the snapshot swap: the save reports the
// error and the previous snapshot remains loadable.
TEST(CrashPoint, RenameFailureKeepsOldSnapshot) {
  const std::string snap = TmpPath("crash_rename.phtree");
  RemoveFile(snap);
  PhTree v1(2);
  v1.Insert(PhKey{1, 1}, 10);
  ASSERT_TRUE(SavePhTreeOr(v1, snap).ok());
  PhTree v2(2);
  v2.Insert(PhKey{2, 2}, 20);
  v2.Insert(PhKey{3, 3}, 30);

  FaultInjector inj;
  SetFaultInjector(&inj);
  FaultyVfs vfs;
  {
    ScopedVfs scoped(&vfs);
    inj.ArmCountdown(FaultSite::kVfsRename, 1);
    const Status st = SavePhTreeOr(v2, snap);
    EXPECT_FALSE(st.ok());
    EXPECT_EQ(st.code(), StatusCode::kIoError);
    EXPECT_TRUE(inj.fired());
  }
  SetFaultInjector(nullptr);
  auto loaded = LoadPhTreeOr(snap);
  ASSERT_TRUE(loaded) << loaded.error().ToString();
  EXPECT_EQ(loaded->size(), v1.size());
  RemoveFile(snap);
}

}  // namespace
}  // namespace phtree
