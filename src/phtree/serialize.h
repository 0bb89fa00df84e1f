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
// Full byte layout: DESIGN.md, "Snapshot format v2".
#ifndef PHTREE_PHTREE_SERIALIZE_H_
#define PHTREE_PHTREE_SERIALIZE_H_

#include <cstdint>
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

/// Serialises `tree` into a format-v2 byte buffer.
std::vector<uint8_t> SerializePhTree(const PhTree& tree,
                                     const SaveOptions& options = {});

/// Reconstructs a tree from SerializePhTree output, feeding the entries
/// to the z-order builder (builder.h) as they are verified. Any other
/// "PHT" version fails with kUnsupportedVersion; keys that do not
/// strictly ascend in z-order fail with kRecordCorrupt naming the record
/// and entry. On an allocation failure std::bad_alloc propagates and no
/// partial tree is returned.
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
/// rename + dir-fsync protocol. Lets callers that must serialise under a
/// lock (the one-shard PhTreeSharded::Save) do the disk I/O outside their
/// critical section.
Status WriteSnapshotFileOr(const std::vector<uint8_t>& bytes,
                           const std::string& path);

/// Reads and deserialises a snapshot file. I/O failures (missing file,
/// short read) come back as kIoError; malformed contents keep their format
/// error classes — callers can finally tell the two apart.
Expected<PhTree, SnapshotError> LoadPhTreeOr(const std::string& path,
                                             const LoadOptions& options = {});

/// A snapshot's entries as flat rows, in the stream's (z-)order.
struct SnapshotRows {
  uint32_t dim = 0;
  PhTreeConfig config;
  std::vector<uint64_t> keys;    ///< dim words per entry
  std::vector<uint64_t> values;  ///< one per entry (0 in key-only mode)
};

/// Reads a snapshot file with every check LoadPhTreeOr makes short of
/// building a tree (the same error classes, offsets and messages) and
/// returns its entries. PhTreeSharded::Load cuts them into shards.
Expected<SnapshotRows, SnapshotError> LoadSnapshotRowsOr(
    const std::string& path);

/// Byte map of a v2 snapshot: where the header, each record and the
/// trailer sit. Used by diagnostics and by the corruption fault-injection
/// harness (src/benchlib/snapshot_fault.h) to aim mutations at specific
/// structures. Only framing is walked — CRCs are not verified and no tree
/// is rebuilt.
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
