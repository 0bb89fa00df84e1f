#include "phtree/serialize.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <bit>
#include <cassert>
#include <cerrno>
#include <cstdio>
#include <cstring>

#include "common/crc32c.h"
#include "common/vfs.h"
#include "phtree/builder.h"
#include "phtree/cursor.h"
#include "phtree/validate.h"

// GCC 12 emits a false-positive stringop-overflow for std::vector<uint8_t>
// growth under -O3 (PR 106199); the code below only appends within bounds.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wstringop-overflow"
#endif

namespace phtree {
namespace {

constexpr uint8_t kMagicV2[4] = {'P', 'H', 'T', '2'};

// v2 header: magic(4) + payload_len(4) + payload + header CRC(4). The
// payload is the fixed field block below; its length is stored so a reader
// can tell "unknown header shape" from "corrupt header".
constexpr uint32_t kHeaderPayloadLen = 30;  // dim4 repr1 hys8 hcmax4 sv1 n8 rc4
// Three header fields are reserved: repr (a layout policy code 0-3), a
// hysteresis band and an HC dimensionality cap, which older writers filled
// from their config. Writers store the values below; loaders range-check
// the repr byte and otherwise ignore all three, since every node follows
// the one representation rule.
constexpr uint8_t kReservedRepr = 0;
constexpr uint8_t kReservedReprMax = 3;
constexpr double kReservedHysteresis = 1.0;
constexpr uint32_t kReservedHcMaxDim = 20;
constexpr size_t kHeaderEnd = 4 + 4 + kHeaderPayloadLen + 4;
// v2 trailer: n(8) + record_count(4) + whole-stream CRC(4).
constexpr size_t kTrailerLen = 16;

void PutU8(std::vector<uint8_t>* out, uint8_t v) { out->push_back(v); }

void PutU32(std::vector<uint8_t>* out, uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out->push_back(static_cast<uint8_t>(v >> (8 * i)));
  }
}

void PutU64(std::vector<uint8_t>* out, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out->push_back(static_cast<uint8_t>(v >> (8 * i)));
  }
}

/// Length-prefixed big-endian with leading zero bytes stripped. Entries are
/// emitted in z-order, so consecutive keys share long prefixes and their
/// XOR deltas are numerically small — the same prefix-sharing effect the
/// tree itself exploits (Sect. 3.4) applied to the wire format.
void PutDelta(std::vector<uint8_t>* out, uint64_t delta) {
  const uint32_t bytes = delta == 0 ? 0 : (71 - std::countl_zero(delta)) / 8;
  out->push_back(static_cast<uint8_t>(bytes));
  for (uint32_t i = bytes; i > 0; --i) {
    out->push_back(static_cast<uint8_t>(delta >> (8 * (i - 1))));
  }
}

/// Bounds-checked little-endian reader over a byte span. Reads never run
/// past `end`; a failed read trips `ok()` and freezes `pos()` at the spot
/// the stream fell short, which becomes the reported error offset.
class Reader {
 public:
  Reader(const uint8_t* data, size_t begin, size_t end)
      : data_(data), pos_(begin), end_(end) {}

  bool ok() const { return ok_; }
  bool AtEnd() const { return pos_ == end_; }
  size_t pos() const { return pos_; }
  size_t remaining() const { return end_ - pos_; }

  uint8_t GetU8() {
    if (!ok_ || pos_ + 1 > end_) {
      ok_ = false;
      return 0;
    }
    return data_[pos_++];
  }

  uint32_t GetU32() {
    uint32_t v = 0;
    for (int i = 0; i < 4; ++i) {
      v |= static_cast<uint32_t>(GetU8()) << (8 * i);
    }
    return v;
  }

  uint64_t GetU64() {
    uint64_t v = 0;
    for (int i = 0; i < 8; ++i) {
      v |= static_cast<uint64_t>(GetU8()) << (8 * i);
    }
    return v;
  }

  /// Inverse of PutDelta; a length byte > 8 is malformed and trips ok().
  uint64_t GetDelta() {
    const uint8_t bytes = GetU8();
    if (bytes > 8) {
      ok_ = false;
      return 0;
    }
    uint64_t v = 0;
    for (uint32_t i = 0; i < bytes; ++i) {
      v = (v << 8) | GetU8();
    }
    return v;
  }

 private:
  const uint8_t* data_;
  size_t pos_;
  size_t end_;
  bool ok_ = true;
};

Status Err(StatusCode code, size_t offset, std::string message) {
  return Status(code, offset, std::move(message));
}

std::string HexU32(uint32_t v) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "0x%08X", v);
  return buf;
}

struct HeaderV2 {
  PhTreeConfig config;
  uint32_t dim;
  uint64_t n;
  uint32_t record_count;
};

/// Parses the fixed v2 header, CRC-verifying it when `check_crc` (only
/// DescribeSnapshot's framing walk skips that). `bytes` is known to start
/// with the v2 magic.
StatusOr<HeaderV2> ParseHeaderV2(const std::vector<uint8_t>& bytes,
                                 bool check_crc) {
  if (bytes.size() < kHeaderEnd) {
    return Err(StatusCode::kTruncated, bytes.size(),
               "stream ends inside the header (need " +
                   std::to_string(kHeaderEnd) + " bytes, have " +
                   std::to_string(bytes.size()) + ")");
  }
  Reader r(bytes.data(), 4, kHeaderEnd);
  const uint32_t payload_len = r.GetU32();
  if (payload_len != kHeaderPayloadLen) {
    return Err(StatusCode::kHeaderCorrupt, 4,
               "header payload length is " + std::to_string(payload_len) +
                   ", expected " + std::to_string(kHeaderPayloadLen));
  }
  if (check_crc) {
    const size_t crc_offset = kHeaderEnd - 4;
    const uint32_t stored =
        static_cast<uint32_t>(bytes[crc_offset]) |
        static_cast<uint32_t>(bytes[crc_offset + 1]) << 8 |
        static_cast<uint32_t>(bytes[crc_offset + 2]) << 16 |
        static_cast<uint32_t>(bytes[crc_offset + 3]) << 24;
    const uint32_t computed = Crc32c(bytes.data(), crc_offset);
    if (stored != computed) {
      return Err(StatusCode::kHeaderCorrupt, crc_offset,
                 "header CRC mismatch (stored " + HexU32(stored) +
                     ", computed " + HexU32(computed) + ")");
    }
  }
  HeaderV2 h;
  const size_t dim_offset = r.pos();
  h.dim = r.GetU32();
  if (h.dim < 1 || h.dim > kMaxDims) {
    return Err(StatusCode::kHeaderCorrupt, dim_offset,
               "dimensionality " + std::to_string(h.dim) +
                   " outside [1, " + std::to_string(kMaxDims) + "]");
  }
  const size_t repr_offset = r.pos();
  const uint8_t repr = r.GetU8();
  if (repr > kReservedReprMax) {
    return Err(StatusCode::kHeaderCorrupt, repr_offset,
               "unknown node representation " + std::to_string(repr));
  }
  r.GetU64();  // reserved: hysteresis
  r.GetU32();  // reserved: hc_max_dim
  h.config.store_values = r.GetU8() != 0;
  h.n = r.GetU64();
  h.record_count = r.GetU32();
  return h;
}

/// Walks the records and the trailer of a v2 stream with header `h` (see
/// DESIGN.md "Snapshot format v2"), verifying every CRC, both counts and
/// that the keys strictly ascend in z-order, and hands each entry to
/// `sink(key, value)` in stream order. The sink sees every entry before
/// the trailer is checked, so a caller publishes nothing until this
/// returns Ok.
template <typename Sink>
Status DecodeV2(const std::vector<uint8_t>& bytes, const HeaderV2& h,
                Sink&& sink) {
  PhKey key(h.dim, 0);
  uint64_t delta[kMaxDims];
  uint64_t decoded = 0;
  size_t pos = kHeaderEnd;
  for (uint32_t rec = 0; rec < h.record_count; ++rec) {
    if (pos + 4 > bytes.size()) {
      return Err(StatusCode::kTruncated, pos,
                 "stream ends before the length field of record " +
                     std::to_string(rec));
    }
    Reader len_reader(bytes.data(), pos, bytes.size());
    const uint32_t payload_len = len_reader.GetU32();
    const size_t payload_begin = pos + 4;
    if (payload_len < 4 || payload_len > bytes.size() - payload_begin ||
        bytes.size() - payload_begin - payload_len < 4) {
      // A length that cannot fit its payload + CRC before the end of the
      // stream: either a flipped length field or a truncated stream.
      return Err(StatusCode::kTruncated, pos,
                 "record " + std::to_string(rec) + " claims " +
                     std::to_string(payload_len) +
                     " payload bytes but the stream cannot hold them");
    }
    const size_t crc_offset = payload_begin + payload_len;
    Reader crc_reader(bytes.data(), crc_offset, crc_offset + 4);
    const uint32_t stored = crc_reader.GetU32();
    const uint32_t computed = Crc32c(bytes.data() + payload_begin, payload_len);
    if (stored != computed) {
      return Err(StatusCode::kRecordCorrupt, pos,
                 "record " + std::to_string(rec) + " CRC mismatch (stored " +
                     HexU32(stored) + ", computed " + HexU32(computed) + ")");
    }
    Reader r(bytes.data(), payload_begin, crc_offset);
    const uint32_t entry_count = r.GetU32();
    for (uint32_t i = 0; i < entry_count; ++i) {
      const size_t entry_offset = r.pos();
      uint64_t agg = 0;
      for (uint32_t d = 0; d < h.dim; ++d) {
        delta[d] = r.GetDelta();
        key[d] ^= delta[d];
        agg |= delta[d];
      }
      const uint64_t value = h.config.store_values ? r.GetU64() : 0;
      const auto entry_error = [&](const std::string& what) {
        return Err(StatusCode::kRecordCorrupt, entry_offset,
                   "record " + std::to_string(rec) + " entry " +
                       std::to_string(i) + " " + what);
      };
      if (!r.ok()) {
        return entry_error(
            "is undecodable (runs past the record payload or has a delta "
            "length > 8)");
      }
      if (decoded > 0) {
        if (agg == 0) {
          return entry_error("duplicates an earlier key");
        }
        // The key's delta to its predecessor: the lowest dimension holding
        // its top bit decides the z-order (as in ZOrderCompare).
        const uint64_t top = std::bit_floor(agg);
        uint32_t d = 0;
        while ((delta[d] & top) == 0) {
          ++d;
        }
        if ((key[d] & top) == 0) {
          return entry_error("is z-before the key preceding it");
        }
      }
      sink(std::span<const uint64_t>(key), value);
      ++decoded;
    }
    if (!r.AtEnd()) {
      return Err(StatusCode::kRecordCorrupt, r.pos(),
                 "record " + std::to_string(rec) + " has " +
                     std::to_string(r.remaining()) +
                     " stray bytes after its last entry");
    }
    pos = crc_offset + 4;
  }

  if (decoded != h.n) {
    return Err(StatusCode::kCountMismatch, pos,
               "header declares " + std::to_string(h.n) +
                   " entries but the records hold " + std::to_string(decoded));
  }

  const size_t trailer_begin = pos;
  if (bytes.size() - trailer_begin < kTrailerLen) {
    return Err(StatusCode::kTruncated, trailer_begin,
               "stream ends inside the trailer (need " +
                   std::to_string(kTrailerLen) + " bytes, have " +
                   std::to_string(bytes.size() - trailer_begin) + ")");
  }
  Reader t(bytes.data(), trailer_begin, bytes.size());
  const uint64_t trailer_n = t.GetU64();
  const uint32_t trailer_records = t.GetU32();
  const uint32_t stored_stream_crc = t.GetU32();
  if (trailer_n != h.n || trailer_records != h.record_count) {
    return Err(StatusCode::kTrailerCorrupt, trailer_begin,
               "trailer counts (" + std::to_string(trailer_n) + " entries, " +
                   std::to_string(trailer_records) +
                   " records) disagree with the header (" +
                   std::to_string(h.n) + ", " +
                   std::to_string(h.record_count) + ")");
  }
  const uint32_t computed = Crc32c(bytes.data(), trailer_begin);
  if (stored_stream_crc != computed) {
    return Err(StatusCode::kTrailerCorrupt, trailer_begin + 12,
               "stream CRC mismatch (stored " + HexU32(stored_stream_crc) +
                   ", computed " + HexU32(computed) + ")");
  }
  if (!t.AtEnd()) {
    return Err(StatusCode::kTrailerCorrupt, t.pos(),
               std::to_string(t.remaining()) +
                   " trailing garbage bytes after the trailer");
  }
  return Status::Ok();
}

/// Checks the magic: Ok for a v2 stream, else the typed rejection.
Status CheckMagic(const std::vector<uint8_t>& bytes) {
  if (bytes.size() < 4) {
    return Err(StatusCode::kTruncated, bytes.size(),
               "stream is shorter than the 4-byte magic");
  }
  if (std::memcmp(bytes.data(), kMagicV2, 4) == 0) {
    return Status::Ok();
  }
  if (std::memcmp(bytes.data(), "PHT", 3) == 0) {
    return Err(StatusCode::kUnsupportedVersion, 3,
               "snapshot version '" +
                   std::string(1, static_cast<char>(bytes[3])) +
                   "' is not readable by this build (knows v2 only)");
  }
  return Err(StatusCode::kBadMagic, 0, "not a PH-tree snapshot");
}

/// Builds the tree of a v2 stream: the verified entries feed the z-order
/// builder directly, which writes every node once.
Expected<PhTree, SnapshotError> DeserializeV2(
    const std::vector<uint8_t>& bytes, const LoadOptions& options) {
  auto header = ParseHeaderV2(bytes, /*check_crc=*/true);
  if (!header) {
    return header.error();
  }
  PhTree tree(header->dim, header->config);
  {
    ZOrderBuilder builder(&tree);
    const Status decoded = DecodeV2(
        bytes, *header, [&](std::span<const uint64_t> key, uint64_t value) {
          const ZOrderBuilder::AddResult added = builder.Add(key, value);
          assert(added == ZOrderBuilder::AddResult::kAdded);
          (void)added;
        });
    if (!decoded.ok()) {
      return decoded;
    }
    builder.Finish();
  }
  if (options.validate_structure) {
    const std::string violation = ValidatePhTree(tree);
    if (!violation.empty()) {
      return Err(StatusCode::kStructureInvalid, Status::kNoOffset,
                 "rebuilt tree fails validation: " + violation);
    }
  }
  return tree;
}

// All file I/O below goes through the process-wide Vfs (common/vfs.h) so the
// fault-injection tests can swap in a FaultyVfs.

/// fsyncs the directory containing `path` so a preceding rename is durable.
/// Filesystems that cannot fsync a directory (EINVAL/ENOTSUP) are treated
/// as success — there is nothing more userland can do there.
Status FsyncParentDir(const std::string& path) {
  Vfs& vfs = *GetVfs();
  const size_t slash = path.find_last_of('/');
  const std::string dir =
      slash == std::string::npos ? "." : (slash == 0 ? "/" : path.substr(0, slash));
  const int dfd = OpenRetry(vfs, dir.c_str(), O_RDONLY | O_DIRECTORY, 0);
  if (dfd < 0) {
    return IoError("open directory " + dir);
  }
  if (FsyncRetry(vfs, dfd) != 0 && errno != EINVAL && errno != ENOTSUP) {
    const Status st = IoError("fsync directory " + dir);
    CloseRetry(vfs, dfd);
    return st;
  }
  CloseRetry(vfs, dfd);
  return Status::Ok();
}

/// Reads a whole file, classifying the failure modes a caller cannot tell
/// apart from a parse error: missing/unreadable files, directories and
/// zero-length files all come back as kIoError with a message naming the
/// condition, before any snapshot parsing runs.
StatusOr<std::vector<uint8_t>> ReadFileOr(const std::string& path) {
  Vfs& vfs = *GetVfs();
  const int fd = OpenRetry(vfs, path.c_str(), O_RDONLY, 0);
  if (fd < 0) {
    return IoError("open " + path);
  }
  uint64_t size = 0;
  bool is_dir = false;
  if (vfs.Stat(fd, &size, &is_dir) != 0) {
    const Status st = IoError("stat " + path);
    CloseRetry(vfs, fd);
    return st;
  }
  if (is_dir) {
    CloseRetry(vfs, fd);
    return Status(StatusCode::kIoError, Status::kNoOffset,
                  path + " is a directory, not a snapshot file");
  }
  if (size == 0) {
    CloseRetry(vfs, fd);
    return Status(StatusCode::kIoError, Status::kNoOffset,
                  path + " is empty (zero-length file)");
  }
  std::vector<uint8_t> bytes(static_cast<size_t>(size));
  const ssize_t got = ReadAll(vfs, fd, bytes.data(), bytes.size());
  if (got < 0) {
    const Status st = IoError("read " + path);
    CloseRetry(vfs, fd);
    return st;
  }
  CloseRetry(vfs, fd);
  if (static_cast<size_t>(got) < bytes.size()) {
    return Status(StatusCode::kIoError, Status::kNoOffset,
                  "short read on " + path + ": got " + std::to_string(got) +
                      " of " + std::to_string(bytes.size()) + " bytes");
  }
  return bytes;
}

}  // namespace

SnapshotWriter::SnapshotWriter(uint32_t dim, bool store_values, uint64_t n,
                               const SaveOptions& options)
    : dim_(dim),
      store_values_(store_values),
      n_(n),
      entries_per_record_(std::max<uint32_t>(1, options.entries_per_record)),
      record_count_(static_cast<uint32_t>((n + entries_per_record_ - 1) /
                                          entries_per_record_)),
      prev_(dim, 0) {
  out_.insert(out_.end(), kMagicV2, kMagicV2 + 4);
  PutU32(&out_, kHeaderPayloadLen);
  PutU32(&out_, dim);
  PutU8(&out_, kReservedRepr);
  PutU64(&out_, std::bit_cast<uint64_t>(kReservedHysteresis));
  PutU32(&out_, kReservedHcMaxDim);
  PutU8(&out_, store_values ? 1 : 0);
  PutU64(&out_, n);
  PutU32(&out_, record_count_);
  PutU32(&out_, Crc32c(out_.data(), out_.size()));  // header CRC
}

void SnapshotWriter::Add(std::span<const uint64_t> key, uint64_t value) {
  assert(key.size() == dim_ && added_ < n_);
  // Entries in z-order with per-dimension XOR deltas vs the previous key,
  // chunked into records. The delta chain runs across record boundaries
  // (records are a framing unit, not a decoding restart point).
  if (in_record_ == 0) {
    record_begin_ = out_.size();
    out_.resize(out_.size() + 8);  // payload length + entry count, patched
  }
  for (uint32_t d = 0; d < dim_; ++d) {
    PutDelta(&out_, key[d] ^ prev_[d]);
    prev_[d] = key[d];
  }
  if (store_values_) {
    PutU64(&out_, value);
  }
  ++added_;
  if (++in_record_ == entries_per_record_) {
    FlushRecord();
  }
}

void SnapshotWriter::FlushRecord() {
  const size_t payload_begin = record_begin_ + 4;
  const size_t payload_len = out_.size() - payload_begin;
  for (int i = 0; i < 4; ++i) {
    out_[record_begin_ + i] = static_cast<uint8_t>(payload_len >> (8 * i));
    out_[payload_begin + i] = static_cast<uint8_t>(in_record_ >> (8 * i));
  }
  PutU32(&out_, Crc32c(out_.data() + payload_begin, payload_len));
  in_record_ = 0;
}

std::vector<uint8_t> SnapshotWriter::Finish() && {
  assert(added_ == n_);
  if (in_record_ > 0) {
    FlushRecord();
  }
  const uint32_t stream_crc = Crc32c(out_.data(), out_.size());
  PutU64(&out_, n_);
  PutU32(&out_, record_count_);
  PutU32(&out_, stream_crc);
  return std::move(out_);
}

std::vector<uint8_t> SerializePhTree(const PhTree& tree,
                                     const SaveOptions& options) {
  SnapshotWriter writer(tree.dim(), tree.config().store_values, tree.size(),
                        options);
  for (TreeCursor cursor(tree); cursor.Valid(); cursor.Next()) {
    writer.Add(cursor.key(), cursor.value());
  }
  return std::move(writer).Finish();
}

Expected<PhTree, SnapshotError> DeserializePhTreeOr(
    const std::vector<uint8_t>& bytes, const LoadOptions& options) {
  if (Status magic = CheckMagic(bytes); !magic.ok()) {
    return magic;
  }
  return DeserializeV2(bytes, options);
}

Status WriteSnapshotFileOr(const std::vector<uint8_t>& bytes,
                           const std::string& path) {
  Vfs& vfs = *GetVfs();
  const std::string tmp = path + ".tmp";
  const int fd = OpenRetry(vfs, tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC,
                           0644);
  if (fd < 0) {
    return IoError("open " + tmp);
  }
  if (const Status st =
          WriteAll(vfs, fd, bytes.data(), bytes.size(), "write " + tmp);
      !st.ok()) {
    CloseRetry(vfs, fd);
    vfs.Unlink(tmp.c_str());
    return st;
  }
  if (FsyncRetry(vfs, fd) != 0) {
    const Status st = IoError("fsync " + tmp);
    CloseRetry(vfs, fd);
    vfs.Unlink(tmp.c_str());
    return st;
  }
  if (CloseRetry(vfs, fd) != 0) {
    const Status st = IoError("close " + tmp);
    vfs.Unlink(tmp.c_str());
    return st;
  }
  if (vfs.Rename(tmp.c_str(), path.c_str()) != 0) {
    const Status st = IoError("rename " + tmp + " -> " + path);
    vfs.Unlink(tmp.c_str());
    return st;
  }
  return FsyncParentDir(path);
}

Status SavePhTreeOr(const PhTree& tree, const std::string& path,
                    const SaveOptions& options) {
  return WriteSnapshotFileOr(SerializePhTree(tree, options), path);
}

Expected<PhTree, SnapshotError> LoadPhTreeOr(const std::string& path,
                                             const LoadOptions& options) {
  auto bytes = ReadFileOr(path);
  if (!bytes) {
    return bytes.error();
  }
  return DeserializePhTreeOr(*bytes, options);
}

Expected<SnapshotRows, SnapshotError> LoadSnapshotRowsOr(
    const std::string& path) {
  auto bytes = ReadFileOr(path);
  if (!bytes) {
    return bytes.error();
  }
  if (Status magic = CheckMagic(*bytes); !magic.ok()) {
    return magic;
  }
  auto header = ParseHeaderV2(*bytes, /*check_crc=*/true);
  if (!header) {
    return header.error();
  }
  SnapshotRows rows;
  rows.dim = header->dim;
  rows.config = header->config;
  // Cap the reservation by the stream's physical capacity (each entry
  // costs at least one delta byte per dimension, plus 8 value bytes when
  // values are stored) so a corrupt count cannot trigger a huge
  // allocation.
  const size_t max_entries =
      bytes->size() / (rows.dim + (rows.config.store_values ? 8 : 0));
  const size_t n = static_cast<size_t>(
      std::min<uint64_t>(header->n, max_entries));
  rows.keys.reserve(n * rows.dim);
  rows.values.reserve(n);
  const Status decoded = DecodeV2(
      *bytes, *header, [&](std::span<const uint64_t> key, uint64_t value) {
        rows.keys.insert(rows.keys.end(), key.begin(), key.end());
        rows.values.push_back(value);
      });
  if (!decoded.ok()) {
    return decoded;
  }
  return rows;
}

StatusOr<SnapshotLayout> DescribeSnapshot(const std::vector<uint8_t>& bytes) {
  if (bytes.size() < 4) {
    return Err(StatusCode::kTruncated, bytes.size(),
               "stream is shorter than the 4-byte magic");
  }
  if (std::memcmp(bytes.data(), kMagicV2, 4) != 0) {
    return Err(StatusCode::kBadMagic, 0, "not a PH-tree snapshot");
  }
  auto header = ParseHeaderV2(bytes, /*check_crc=*/false);
  if (!header) {
    return header.error();
  }
  SnapshotLayout layout;
  layout.version = kSnapshotVersion;
  layout.header_end = kHeaderEnd;
  layout.entry_count = header->n;
  size_t pos = kHeaderEnd;
  for (uint32_t rec = 0; rec < header->record_count; ++rec) {
    if (pos + 4 > bytes.size()) {
      return Err(StatusCode::kTruncated, pos,
                 "stream ends before the length field of record " +
                     std::to_string(rec));
    }
    Reader r(bytes.data(), pos, bytes.size());
    const uint32_t payload_len = r.GetU32();
    const size_t payload_begin = pos + 4;
    if (payload_len < 4 || payload_len > bytes.size() - payload_begin ||
        bytes.size() - payload_begin - payload_len < 4) {
      return Err(StatusCode::kTruncated, pos,
                 "record " + std::to_string(rec) +
                     " does not fit in the stream");
    }
    Reader pr(bytes.data(), payload_begin, payload_begin + 4);
    SnapshotLayout::Record record;
    record.begin = pos;
    record.payload_begin = payload_begin;
    record.crc_offset = payload_begin + payload_len;
    record.end = record.crc_offset + 4;
    record.entry_count = pr.GetU32();
    layout.records.push_back(record);
    pos = record.end;
  }
  if (bytes.size() - pos != kTrailerLen) {
    return Err(StatusCode::kTruncated, pos,
               "trailer region is " + std::to_string(bytes.size() - pos) +
                   " bytes, expected " + std::to_string(kTrailerLen));
  }
  layout.trailer_begin = pos;
  layout.trailer_end = bytes.size();
  return layout;
}

StatusOr<SnapshotLayout> DescribeSnapshotFile(const std::string& path) {
  auto bytes = ReadFileOr(path);
  if (!bytes) {
    return bytes.error();
  }
  return DescribeSnapshot(*bytes);
}

}  // namespace phtree
