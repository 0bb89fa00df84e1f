// Serialisation of a PH-tree to/from a flat byte stream. The paper argues
// the PH-tree suits persistent storage (Sect. 1: nodes are large enough to
// map to disk pages; Sect. 3.4: nodes are already bit-stream serialised).
// This module writes the tree's entries in z-order as a self-describing
// stream of records; loading feeds them to the z-order builder
// (builder.h), which writes every node once and rebuilds the identical
// structure (shape is a pure function of the data, so a round trip is
// bit-identical in stats).
//
// Snapshot format v2 (magic "PHT2") hardens that stream for disk use:
//   * versioned, CRC32C-protected header,
//   * entries chunked into length-framed records, each with its own CRC32C,
//   * a trailer repeating the entry/record counts plus a whole-stream CRC,
// so truncation, bit flips and record splices are all detected instead of
// silently deserialising into a broken tree. Loads report failures through
// Status/Expected (common/status.h) with the error class and byte offset;
// saves are atomic and durable (tmp file + fsync + rename + dir fsync).
// SnapshotWriter and SnapshotReader are the stream's two ends; the record
// framing, the little-endian fields and the file I/O are the byte layer
// the WAL shares (common/byte_io.h). Full byte layout: DESIGN.md,
// "Snapshot format v2".
#ifndef PHTREE_PHTREE_SERIALIZE_H_
#define PHTREE_PHTREE_SERIALIZE_H_

#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "common/status.h"
#include "phtree/phtree.h"

namespace phtree {

/// Snapshot failures are plain Status values; the alias marks APIs whose
/// codes follow the snapshot error-class contract (see StatusCode).
using SnapshotError = Status;

inline constexpr uint32_t kSnapshotVersion = 2;  ///< "PHT2", current

/// Writer knobs.
struct SaveOptions {
  /// Entries per length-framed record. Smaller records mean finer-grained
  /// corruption localisation and more CRC overhead (8 bytes per record);
  /// the default keeps overhead < 0.1% for typical trees. Must be >= 1.
  uint32_t entries_per_record = 512;
};

/// Loader knobs. Header, per-record and whole-stream CRC32C checksums are
/// always verified.
struct LoadOptions {
  /// Run ValidatePhTree on the rebuilt tree and fail with
  /// kStructureInvalid if any structural invariant is violated.
  bool validate_structure = false;
};

/// Streams a format-v2 snapshot: the header (which needs the entry count
/// up front), then the entries as they are added, then the trailer.
/// SerializePhTree is this writer over one tree's scan;
/// PhTreeSharded::Save feeds it the shards' scans in z-order.
class SnapshotWriter {
 public:
  SnapshotWriter(uint32_t dim, bool store_values, uint64_t n,
                 const SaveOptions& options = {});

  /// Appends the next of the `n` entries; keys must ascend in z-order.
  void Add(std::span<const uint64_t> key, uint64_t value);

  /// The finished stream, once all `n` entries are added.
  std::vector<uint8_t> Finish() &&;

 private:
  void FlushRecord();

  uint32_t dim_;
  bool store_values_;
  uint64_t n_;
  uint32_t entries_per_record_;
  uint32_t record_count_;
  std::vector<uint8_t> out_;
  std::vector<uint64_t> prev_;
  uint64_t added_ = 0;
  uint32_t in_record_ = 0;
  size_t record_begin_ = 0;  ///< offset of the open record's length field
};

/// Decodes a format-v2 stream: the counterpart of SnapshotWriter. Open
/// checks the magic and the header; ReadEntries walks the records,
/// verifying every CRC, that the keys strictly ascend in z-order, both
/// counts and the trailer, and hands each entry to a sink once it is
/// verified. DeserializePhTreeOr's sink is the z-order builder (builder.h);
/// PhTreeSharded::Load's routes each entry to its shard's rows.
class SnapshotReader {
 public:
  using Sink = std::function<void(std::span<const uint64_t> key,
                                  uint64_t value)>;

  /// Checks the magic (any other "PHT" version is kUnsupportedVersion)
  /// and the header of `bytes`, which must outlive the reader.
  static StatusOr<SnapshotReader> Open(std::span<const uint8_t> bytes);

  uint32_t dim() const { return dim_; }
  const PhTreeConfig& config() const { return config_; }

  /// The header's entry count capped by what the stream can physically
  /// hold (each entry takes at least one byte per dimension, plus 8 value
  /// bytes when values are stored). The count is not verified until the
  /// trailer, so reservations must not exceed this.
  size_t max_entries() const;

  /// Calls sink(key, value) for each entry in stream order, then checks
  /// the counts and the trailer. The sink sees every entry before the
  /// trailer is checked, so a caller publishes nothing until this returns
  /// Ok. Keys that do not strictly ascend in z-order fail with
  /// kRecordCorrupt naming the record and entry. Exceptions the sink
  /// throws propagate.
  Status ReadEntries(const Sink& sink) const;

 private:
  SnapshotReader() = default;

  std::span<const uint8_t> bytes_;
  uint32_t dim_ = 0;
  PhTreeConfig config_;
  uint64_t n_ = 0;
  uint32_t record_count_ = 0;
};

/// Serialises `tree` into a format-v2 byte buffer.
std::vector<uint8_t> SerializePhTree(const PhTree& tree,
                                     const SaveOptions& options = {});

/// Reconstructs a tree from SerializePhTree output: SnapshotReader's
/// entries feed the z-order builder (builder.h) as they are verified. On
/// an allocation failure std::bad_alloc propagates and no partial tree is
/// returned.
/// On failure the error carries the class, the byte offset of the problem
/// and a message naming what broke (e.g. a CRC mismatch with both values).
/// The configuration of the returned tree is taken from the stream.
Expected<PhTree, SnapshotError> DeserializePhTreeOr(
    const std::vector<uint8_t>& bytes, const LoadOptions& options = {});

/// Atomically and durably writes `tree`'s v2 snapshot to `path`: the bytes
/// go to `path + ".tmp"`, which is fsync'd, renamed over `path`, and the
/// parent directory fsync'd — a crash at any point leaves either the old
/// snapshot or the new one, never a torn file. Errors are kIoError with
/// the failing syscall and errno text in the message.
Status SavePhTreeOr(const PhTree& tree, const std::string& path,
                    const SaveOptions& options = {});

/// The atomic-durable half of SavePhTreeOr on its own: writes an already
/// serialised snapshot byte stream to `path` with the same tmp + fsync +
/// rename + dir-fsync protocol (WriteFileAtomicOr, common/byte_io.h). Lets
/// callers that must serialise under a lock do the disk I/O outside their
/// critical section.
Status WriteSnapshotFileOr(const std::vector<uint8_t>& bytes,
                           const std::string& path);

/// Reads a snapshot file whole (ReadFileOr, common/byte_io.h). Missing or
/// unreadable files, directories and zero-length files are kIoError, told
/// apart from malformed contents, which keep their format error classes.
/// With `missing` non-null a file that does not exist is no error: *missing
/// is set and the buffer is empty (RecoverPhTree's case).
StatusOr<std::vector<uint8_t>> ReadSnapshotFileOr(const std::string& path,
                                                  bool* missing = nullptr);

/// Reads and deserialises a snapshot file (ReadSnapshotFileOr, then
/// DeserializePhTreeOr).
Expected<PhTree, SnapshotError> LoadPhTreeOr(const std::string& path,
                                             const LoadOptions& options = {});

/// Byte map of a v2 snapshot: where the header, each record and the
/// trailer sit. Used by diagnostics and by the corruption fault-injection
/// harness (src/benchlib/snapshot_fault.h) to aim mutations at specific
/// structures. Only framing is walked — a record whose CRC fails is still
/// mapped, and no tree is rebuilt.
struct SnapshotLayout {
  struct Record {
    size_t begin;          ///< offset of the u32 payload-length field
    size_t payload_begin;  ///< offset of the record payload
    size_t crc_offset;     ///< offset of the u32 record CRC
    size_t end;            ///< one past the record CRC
    uint32_t entry_count;  ///< entries framed in this record
  };

  uint32_t version;       ///< kSnapshotVersion
  size_t header_end;      ///< header (incl. its CRC) is [0, header_end)
  uint64_t entry_count;   ///< total entries declared by the header
  std::vector<Record> records;
  size_t trailer_begin;   ///< trailer is [trailer_begin, trailer_end)
  size_t trailer_end;     ///< == total stream size
};

/// Walks a v2 stream's framing. Fails with the usual snapshot error
/// classes on unframeable input.
StatusOr<SnapshotLayout> DescribeSnapshot(const std::vector<uint8_t>& bytes);

/// DescribeSnapshot on a file. Missing/unreadable files, directories and
/// zero-length files fail with kIoError (same classification as
/// LoadPhTreeOr) before any framing is parsed.
StatusOr<SnapshotLayout> DescribeSnapshotFile(const std::string& path);

}  // namespace phtree

#endif  // PHTREE_PHTREE_SERIALIZE_H_
