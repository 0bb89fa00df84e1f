// Write-ahead log for the PH-tree: a checksummed, length-framed append-only
// command log that pairs with the snapshot format (serialize.h) to give the
// durability story its crash-safety half. A process appends one record per
// mutation (insert / insert-or-assign / erase / clear) with group-commit
// fsync; after a crash, RecoverPhTree() loads the last durable snapshot and
// replays the log on top, stopping at the first torn or corrupt tail
// record — recovery always yields a tree equal to a prefix of the applied
// command sequence, never a half-applied mutation (the in-memory update
// path is commit-or-rollback per op, see phtree.h OpStatus).
//
// Format (all integers little-endian):
//   header:  "PHWL" magic(4) | version(4) | dim(4) | store_values(1)
//            | CRC32C of the preceding 13 bytes (4)
//   record:  payload_len(4) | payload | CRC32C of payload(4)
//   payload: opcode(1) | dim x coord(8)          [insert/assign/erase]
//            | value(8)                          [insert/assign, value mode]
//            opcode(1)                           [clear]
// Records use the snapshot's frame, from the byte layer both formats share
// (common/byte_io.h).
//
// Corruption policy: a bad header is a hard error (the log is unusable); a
// record that is truncated or fails its CRC ends replay cleanly at the last
// valid record (torn tail — the expected result of a crash mid-append). A
// record whose CRC verifies but whose payload is undecodable is a hard
// kRecordCorrupt error: CRC-valid garbage is not something a crash produces.
//
// Resumption: a record appended behind a torn tail would never be
// replayed, so WalWriter::Open first cuts the log back to its intact
// prefix, and a writer whose append or fsync failed refuses to append
// until the log is reopened. A log shorter than its header holds no
// record: Open starts it over, RecoverPhTree treats it as absent.
#ifndef PHTREE_PHTREE_WAL_H_
#define PHTREE_PHTREE_WAL_H_

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/status.h"
#include "phtree/phtree.h"
#include "phtree/serialize.h"

namespace phtree {

inline constexpr uint32_t kWalVersion = 1;
/// Bytes of the fixed WAL header (magic + version + dim + store_values + CRC).
inline constexpr size_t kWalHeaderLen = 4 + 4 + 4 + 1 + 4;

/// Logged operation kinds (the numeric values are the on-disk opcodes).
enum class WalOp : uint8_t {
  kInsert = 1,          ///< Insert: duplicate keys are a replay no-op
  kInsertOrAssign = 2,  ///< InsertOrAssign: duplicate overwrites the payload
  kErase = 3,
  kClear = 4,
};

/// One logged command. `key` is empty for kClear; `value` is meaningful for
/// the two insert kinds in value mode only.
struct WalCommand {
  WalOp op = WalOp::kInsert;
  PhKey key;
  uint64_t value = 0;
};

/// Writer knobs.
struct WalOptions {
  /// Group commit: fsync after every `n` appended records. 1 = every record
  /// (safest, slowest); 0 = never automatically (caller drives Sync()).
  uint32_t sync_every_n = 1;
};

/// Appends commands to a WAL file through the process-wide Vfs (so the
/// fault-injection tests can crash it mid-record). Move-only; the
/// destructor closes the file without a final fsync — call Close() for a
/// durable shutdown.
class WalWriter {
 public:
  WalWriter() = default;
  ~WalWriter();
  WalWriter(WalWriter&& other) noexcept;
  WalWriter& operator=(WalWriter&& other) noexcept;
  WalWriter(const WalWriter&) = delete;
  WalWriter& operator=(const WalWriter&) = delete;

  /// Opens `path` for appending. A missing file, or one shorter than the
  /// header, is replaced by a fresh header (atomically, WriteFileAtomicOr).
  /// An existing log's header must carry the same dim and store_values
  /// (kHeaderCorrupt otherwise — appending records of one shape to a log
  /// of another would poison replay); its records are walked as replay
  /// walks them (CRC-valid garbage is the same hard error), and a torn
  /// tail is cut off the same atomic way, so new records follow the last
  /// intact one.
  static StatusOr<WalWriter> Open(const std::string& path, uint32_t dim,
                                  bool store_values,
                                  const WalOptions& options = {});

  bool is_open() const { return fd_ >= 0; }
  uint64_t appended() const { return appended_; }

  /// Each append frames its record once, in a stack buffer (no heap
  /// allocation). A write or fsync failure may leave a torn record behind,
  /// so it poisons the writer: every later Append or Sync fails with
  /// kIoError until the log is reopened, which cuts the torn bytes.
  Status Append(const WalCommand& cmd);
  Status AppendInsert(std::span<const uint64_t> key, uint64_t value);
  Status AppendInsertOrAssign(std::span<const uint64_t> key, uint64_t value);
  Status AppendErase(std::span<const uint64_t> key);
  Status AppendClear();

  /// fsyncs everything appended so far.
  Status Sync();

  /// Sync + close. The writer is unusable afterwards.
  Status Close();

 private:
  /// Ok, or why nothing may be appended: closed, or poisoned.
  Status CheckWritable() const;
  Status AppendRecord(WalOp op, std::span<const uint64_t> key,
                      uint64_t value);

  int fd_ = -1;
  uint32_t dim_ = 0;
  bool store_values_ = true;
  bool poisoned_ = false;
  WalOptions options_;
  uint64_t appended_ = 0;
  uint32_t unsynced_ = 0;
};

/// What a replay did and where it stopped.
struct WalReplayStats {
  uint64_t records_applied = 0;
  /// Offset one past the last intact record: the usable log length, and
  /// where WalWriter::Open cuts a torn log before appending.
  uint64_t valid_bytes = 0;
  /// True when trailing bytes were discarded as a torn/corrupt tail.
  bool torn_tail = false;
  /// Human-readable reason the tail was discarded (empty when !torn_tail).
  std::string tail_detail;
};

/// Parses `bytes` (a whole WAL including header) and applies every intact
/// record to `tree` in order. The log's dim/store_values must match the
/// tree. File-system-free on purpose: the fuzzer and the bit-flip sweeps
/// drive this directly. May propagate std::bad_alloc from the tree's
/// mutations; each command applies atomically, so even then `tree` holds
/// exactly the commands applied so far.
StatusOr<WalReplayStats> ReplayWal(std::span<const uint8_t> bytes,
                                   PhTree* tree);

/// ReplayWal over a file read whole through the process-wide Vfs
/// (ReadFileOr, common/byte_io.h).
StatusOr<WalReplayStats> ReplayWalFile(const std::string& path, PhTree* tree);

/// Crash recovery: rebuilds the live tree from the last durable snapshot
/// plus the WAL, reading each file once. Either file may be missing (a
/// crash can predate the first snapshot, or the log may have been
/// compacted away): a missing snapshot starts from an empty tree shaped by
/// the WAL header, a missing WAL or one shorter than its header (what a
/// crash before or inside the header write leaves) yields the snapshot
/// alone, and neither is a kIoError. Torn WAL tails truncate silently
/// (see WalReplayStats) — the result is always a clean prefix of the
/// pre-crash command sequence.
Expected<PhTree, Status> RecoverPhTree(const std::string& snapshot_path,
                                       const std::string& wal_path,
                                       const LoadOptions& options = {},
                                       WalReplayStats* replay_stats = nullptr);

/// Serialises one command into the exact bytes Append writes (length frame
/// + payload + CRC). Exposed for tests that need to assemble logs by hand.
void EncodeWalRecord(const WalCommand& cmd, uint32_t dim, bool store_values,
                     std::vector<uint8_t>* out);

/// Serialises the fixed header. Exposed for the same reason.
void EncodeWalHeader(uint32_t dim, bool store_values,
                     std::vector<uint8_t>* out);

}  // namespace phtree

#endif  // PHTREE_PHTREE_WAL_H_
