// Fuzz target for the WAL replay path. Two modes, selected by the first
// input byte:
//
//   even  — raw-stream mode: the remaining bytes ARE the log. Replay must
//           either reject them with a typed error or apply a clean prefix;
//           crashes and overreads are caught by the sanitizers.
//   odd   — mutation-program mode: the remaining bytes drive bit flips and
//           truncations against a canned valid log (inserts, upserts,
//           erases, a clear), steering replay into every torn-tail and
//           corrupt-record branch with a mostly-valid frame structure.
//
// Invariants checked on every replay that returns stats:
//   * valid_bytes covers the header and never exceeds the input,
//   * torn_tail implies valid_bytes < input size (bytes were discarded)
//     and comes with a reason; a full parse discards nothing,
//   * the resulting tree passes the deep structural validator,
//   * replaying exactly bytes[0, valid_bytes) — the prefix replay
//     certified — succeeds with the same record count, no torn tail, and
//     an identical tree (prefix stability: recovery's contract is that a
//     truncated log is a *valid* log),
//   * resumption: the bytes written to a file, reopened by WalWriter with
//     the header's shape and given one more record, replay exactly
//     records_applied + 1 records with no torn tail (Open cuts a torn
//     tail before appending).
// A hard error may still have applied a prefix; the tree must be valid.
#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "common/bits.h"
#include "common/rng.h"
#include "phtree/phtree.h"
#include "phtree/validate.h"
#include "phtree/wal.h"

namespace {

using phtree::PhKey;
using phtree::PhTree;
using phtree::WalCommand;
using phtree::WalOp;
using phtree::WalReplayStats;

constexpr uint32_t kCannedDim = 3;

/// A deterministic log with every opcode: 200 commands over a dense key
/// cluster (duplicate inserts, hit-and-miss erases, one mid-log clear).
const std::vector<uint8_t>& CannedWal() {
  static const std::vector<uint8_t> bytes = [] {
    std::vector<uint8_t> out;
    phtree::EncodeWalHeader(kCannedDim, /*store_values=*/true, &out);
    phtree::Rng rng(0xFEED5EED);
    WalCommand cmd;
    cmd.key.resize(kCannedDim);
    for (int i = 0; i < 200; ++i) {
      const uint64_t pick = rng.NextU64();
      if (i == 100) {
        cmd.op = WalOp::kClear;
        cmd.key.clear();
      } else {
        cmd.op = static_cast<WalOp>(1 + pick % 3);  // insert/assign/erase
        cmd.key.resize(kCannedDim);
        for (uint64_t& w : cmd.key) {
          w = rng.NextU64() & 0x3F;  // dense: collisions and erase hits
        }
        cmd.value = rng.NextU64();
      }
      phtree::EncodeWalRecord(cmd, kCannedDim, /*store_values=*/true, &out);
    }
    return out;
  }();
  return bytes;
}

/// Best-effort tree shape for an arbitrary byte string: read dim and the
/// store_values flag straight out of the (unverified) header region so
/// shape-matched inputs reach the record loop instead of dying on the
/// shape cross-check.
PhTree TreeForBytes(const std::vector<uint8_t>& bytes) {
  uint32_t dim = 1;
  phtree::PhTreeConfig config;
  if (bytes.size() >= 13) {
    const uint32_t raw = static_cast<uint32_t>(bytes[8]) |
                         static_cast<uint32_t>(bytes[9]) << 8 |
                         static_cast<uint32_t>(bytes[10]) << 16 |
                         static_cast<uint32_t>(bytes[11]) << 24;
    if (raw >= 1 && raw <= phtree::kMaxDims) {
      dim = raw;
    }
    config.store_values = bytes[12] != 0;
  }
  return PhTree(dim, config);
}

void ReplayAndCheck(const std::vector<uint8_t>& bytes, const char* mode) {
  PhTree tree = TreeForBytes(bytes);
  const phtree::StatusOr<WalReplayStats> stats =
      phtree::ReplayWal(bytes, &tree);

  const auto die = [&](const char* what) {
    std::fprintf(stderr, "fuzz_wal (%s): %s\n", mode, what);
    std::abort();
  };

  if (std::string err = phtree::ValidatePhTreeDeep(tree); !err.empty()) {
    std::fprintf(stderr, "fuzz_wal (%s): tree invalid after replay: %s\n",
                 mode, err.c_str());
    std::abort();
  }
  if (!stats) {
    return;  // typed rejection (bad header / CRC-valid garbage) is fine
  }
  if (stats->valid_bytes < phtree::kWalHeaderLen ||
      stats->valid_bytes > bytes.size()) {
    die("valid_bytes outside [header, input size]");
  }
  if (stats->torn_tail) {
    if (stats->valid_bytes >= bytes.size()) {
      die("torn tail reported but nothing was discarded");
    }
    if (stats->tail_detail.empty()) {
      die("torn tail without a reason");
    }
  } else if (stats->valid_bytes != bytes.size()) {
    die("clean parse left unexplained trailing bytes");
  }

  // Prefix stability: the certified prefix must replay cleanly to the
  // same state.
  const std::vector<uint8_t> prefix(
      bytes.begin(), bytes.begin() + static_cast<size_t>(stats->valid_bytes));
  PhTree redo = TreeForBytes(prefix);
  const phtree::StatusOr<WalReplayStats> again =
      phtree::ReplayWal(prefix, &redo);
  if (!again) {
    die("certified prefix failed to replay");
  }
  if (again->torn_tail || again->records_applied != stats->records_applied ||
      again->valid_bytes != stats->valid_bytes) {
    die("prefix replay diverged from the original");
  }
  if (redo.size() != tree.size()) {
    die("prefix replay produced a different tree size");
  }

  // Resumption: reopen the log as a writer would after a crash and append
  // one record; it must replay right behind the surviving ones.
  const std::string path =
      (std::filesystem::temp_directory_path() /
       ("fuzz_wal." + std::to_string(::getpid()) + ".wal"))
          .string();
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(reinterpret_cast<const char*>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
  }
  phtree::WalOptions options;
  options.sync_every_n = 0;
  {
    auto writer = phtree::WalWriter::Open(
        path, tree.dim(), tree.config().store_values, options);
    if (!writer) {
      die("a log replay accepted could not be reopened for appending");
    }
    if (!writer->AppendClear().ok() || !writer->Close().ok()) {
      die("appending to the reopened log failed");
    }
  }
  PhTree resumed = TreeForBytes(bytes);
  const phtree::StatusOr<WalReplayStats> after =
      phtree::ReplayWalFile(path, &resumed);
  std::remove(path.c_str());
  if (!after) {
    die("the resumed log failed to replay");
  }
  if (after->torn_tail ||
      after->records_applied != stats->records_applied + 1) {
    die("the record appended after reopening did not replay");
  }
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  if (size == 0) {
    return 0;
  }
  if ((data[0] & 1) == 0) {
    ReplayAndCheck(std::vector<uint8_t>(data + 1, data + size), "raw");
    return 0;
  }

  std::vector<uint8_t> bytes = CannedWal();
  size_t pos = 1;
  const auto next_byte = [&]() -> uint8_t {
    return pos < size ? data[pos++] : 0;
  };
  const auto next_u32 = [&]() -> uint64_t {
    uint64_t v = 0;
    for (int i = 0; i < 4; ++i) {
      v |= static_cast<uint64_t>(next_byte()) << (8 * i);
    }
    return v;
  };

  for (int op = 0; op < 16 && pos < size && !bytes.empty(); ++op) {
    switch (next_byte() % 4) {
      case 0:
      case 1: {  // bit flip anywhere (header, frame, payload, CRC)
        const uint64_t bit = next_u32() % (bytes.size() * 8);
        bytes[bit / 8] ^= static_cast<uint8_t>(1u << (bit % 8));
        break;
      }
      case 2:  // truncate: the torn-tail case a crash actually produces
        bytes.resize(next_u32() % (bytes.size() + 1));
        break;
      case 3: {  // byte overwrite: length-field damage in one step
        const uint64_t at = next_u32() % bytes.size();
        bytes[at] = next_byte();
        break;
      }
    }
  }
  ReplayAndCheck(bytes, "program");
  return 0;
}
