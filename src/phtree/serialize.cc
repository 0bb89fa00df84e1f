#include "phtree/serialize.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstdio>
#include <cstring>

#include "common/byte_io.h"
#include "common/crc32c.h"
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
// A record payload holds at least its u32 entry count.
constexpr uint32_t kMinRecordPayload = 4;

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

/// Inverse of PutDelta; a length byte > 8 is malformed and trips r.ok().
uint64_t GetDelta(ByteReader& r) {
  const uint8_t bytes = r.GetU8();
  if (bytes > 8) {
    r.Fail();
    return 0;
  }
  uint64_t v = 0;
  for (uint32_t i = 0; i < bytes; ++i) {
    v = (v << 8) | r.GetU8();
  }
  return v;
}

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
StatusOr<HeaderV2> ParseHeaderV2(std::span<const uint8_t> bytes,
                                 bool check_crc) {
  if (bytes.size() < kHeaderEnd) {
    return Err(StatusCode::kTruncated, bytes.size(),
               "stream ends inside the header (need " +
                   std::to_string(kHeaderEnd) + " bytes, have " +
                   std::to_string(bytes.size()) + ")");
  }
  ByteReader r(bytes.data(), 4, kHeaderEnd);
  const uint32_t payload_len = r.GetU32();
  if (payload_len != kHeaderPayloadLen) {
    return Err(StatusCode::kHeaderCorrupt, 4,
               "header payload length is " + std::to_string(payload_len) +
                   ", expected " + std::to_string(kHeaderPayloadLen));
  }
  if (check_crc) {
    const size_t crc_offset = kHeaderEnd - 4;
    const uint32_t stored = LoadU32(bytes.data() + crc_offset);
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

}  // namespace

// ---- SnapshotWriter ---------------------------------------------------------

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
  out_.push_back(kReservedRepr);
  PutU64(&out_, std::bit_cast<uint64_t>(kReservedHysteresis));
  PutU32(&out_, kReservedHcMaxDim);
  out_.push_back(store_values ? 1 : 0);
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
    out_.resize(out_.size() + 8);  // frame length + entry count, sealed
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
  const size_t payload_len = out_.size() - record_begin_ - 4;
  StoreU32(out_.data() + record_begin_ + 4, in_record_);
  out_.resize(out_.size() + 4);  // the frame's CRC
  SealFrame(out_.data() + record_begin_, static_cast<uint32_t>(payload_len));
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

// ---- SnapshotReader ---------------------------------------------------------

StatusOr<SnapshotReader> SnapshotReader::Open(std::span<const uint8_t> bytes) {
  if (bytes.size() < 4) {
    return Err(StatusCode::kTruncated, bytes.size(),
               "stream is shorter than the 4-byte magic");
  }
  if (std::memcmp(bytes.data(), kMagicV2, 4) != 0) {
    if (std::memcmp(bytes.data(), "PHT", 3) == 0) {
      return Err(StatusCode::kUnsupportedVersion, 3,
                 "snapshot version '" +
                     std::string(1, static_cast<char>(bytes[3])) +
                     "' is not readable by this build (knows v2 only)");
    }
    return Err(StatusCode::kBadMagic, 0, "not a PH-tree snapshot");
  }
  auto header = ParseHeaderV2(bytes, /*check_crc=*/true);
  if (!header) {
    return header.error();
  }
  SnapshotReader reader;
  reader.bytes_ = bytes;
  reader.dim_ = header->dim;
  reader.config_ = header->config;
  reader.n_ = header->n;
  reader.record_count_ = header->record_count;
  return reader;
}

size_t SnapshotReader::max_entries() const {
  const size_t per_entry = dim_ + (config_.store_values ? 8 : 0);
  return static_cast<size_t>(
      std::min<uint64_t>(n_, bytes_.size() / per_entry));
}

Status SnapshotReader::ReadEntries(const Sink& sink) const {
  PhKey key(dim_, 0);
  uint64_t delta[kMaxDims];
  uint64_t decoded = 0;
  size_t pos = kHeaderEnd;
  for (uint32_t rec = 0; rec < record_count_; ++rec) {
    const FrameView frame =
        ReadFrame(bytes_, pos, kMinRecordPayload, UINT32_MAX);
    switch (frame.fault) {
      case FrameFault::kNone:
        break;
      case FrameFault::kTornLength:
        return Err(StatusCode::kTruncated, pos,
                   "stream ends before the length field of record " +
                       std::to_string(rec));
      case FrameFault::kBadLength:
      case FrameFault::kTornBody:
        // A length that cannot fit its payload + CRC before the end of the
        // stream: either a flipped length field or a truncated stream.
        return Err(StatusCode::kTruncated, pos,
                   "record " + std::to_string(rec) + " claims " +
                       std::to_string(frame.payload_len) +
                       " payload bytes but the stream cannot hold them");
      case FrameFault::kBadCrc:
        return Err(StatusCode::kRecordCorrupt, pos,
                   "record " + std::to_string(rec) + " CRC mismatch (stored " +
                       HexU32(frame.stored_crc) + ", computed " +
                       HexU32(frame.computed_crc) + ")");
    }
    ByteReader r(bytes_.data(), frame.payload_begin, frame.crc_offset);
    const uint32_t entry_count = r.GetU32();
    for (uint32_t i = 0; i < entry_count; ++i) {
      const size_t entry_offset = r.pos();
      uint64_t agg = 0;
      for (uint32_t d = 0; d < dim_; ++d) {
        delta[d] = GetDelta(r);
        key[d] ^= delta[d];
        agg |= delta[d];
      }
      const uint64_t value = config_.store_values ? r.GetU64() : 0;
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
    pos = frame.end;
  }

  if (decoded != n_) {
    return Err(StatusCode::kCountMismatch, pos,
               "header declares " + std::to_string(n_) +
                   " entries but the records hold " + std::to_string(decoded));
  }

  const size_t trailer_begin = pos;
  if (bytes_.size() - trailer_begin < kTrailerLen) {
    return Err(StatusCode::kTruncated, trailer_begin,
               "stream ends inside the trailer (need " +
                   std::to_string(kTrailerLen) + " bytes, have " +
                   std::to_string(bytes_.size() - trailer_begin) + ")");
  }
  ByteReader t(bytes_.data(), trailer_begin, bytes_.size());
  const uint64_t trailer_n = t.GetU64();
  const uint32_t trailer_records = t.GetU32();
  const uint32_t stored_stream_crc = t.GetU32();
  if (trailer_n != n_ || trailer_records != record_count_) {
    return Err(StatusCode::kTrailerCorrupt, trailer_begin,
               "trailer counts (" + std::to_string(trailer_n) + " entries, " +
                   std::to_string(trailer_records) +
                   " records) disagree with the header (" +
                   std::to_string(n_) + ", " +
                   std::to_string(record_count_) + ")");
  }
  const uint32_t computed = Crc32c(bytes_.data(), trailer_begin);
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

// ---- Trees and files --------------------------------------------------------

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
  auto reader = SnapshotReader::Open(bytes);
  if (!reader) {
    return reader.error();
  }
  PhTree tree(reader->dim(), reader->config());
  {
    ZOrderBuilder builder(&tree);
    const Status decoded = reader->ReadEntries(
        [&builder](std::span<const uint64_t> key, uint64_t value) {
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

Status WriteSnapshotFileOr(const std::vector<uint8_t>& bytes,
                           const std::string& path) {
  return WriteFileAtomicOr(path, bytes);
}

Status SavePhTreeOr(const PhTree& tree, const std::string& path,
                    const SaveOptions& options) {
  return WriteSnapshotFileOr(SerializePhTree(tree, options), path);
}

StatusOr<std::vector<uint8_t>> ReadSnapshotFileOr(const std::string& path,
                                                  bool* missing) {
  auto bytes = ReadFileOr(path, missing);
  if (bytes && bytes->empty() && (missing == nullptr || !*missing)) {
    return Status(StatusCode::kIoError, Status::kNoOffset,
                  path + " is empty (zero-length file)");
  }
  return bytes;
}

Expected<PhTree, SnapshotError> LoadPhTreeOr(const std::string& path,
                                             const LoadOptions& options) {
  auto bytes = ReadSnapshotFileOr(path);
  if (!bytes) {
    return bytes.error();
  }
  return DeserializePhTreeOr(*bytes, options);
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
    // Framing only: a record whose CRC fails is still mapped.
    const FrameView frame =
        ReadFrame(bytes, pos, kMinRecordPayload, UINT32_MAX);
    if (frame.fault == FrameFault::kTornLength) {
      return Err(StatusCode::kTruncated, pos,
                 "stream ends before the length field of record " +
                     std::to_string(rec));
    }
    if (frame.fault != FrameFault::kNone &&
        frame.fault != FrameFault::kBadCrc) {
      return Err(StatusCode::kTruncated, pos,
                 "record " + std::to_string(rec) +
                     " does not fit in the stream");
    }
    layout.records.push_back({pos, frame.payload_begin, frame.crc_offset,
                              frame.end,
                              LoadU32(bytes.data() + frame.payload_begin)});
    pos = frame.end;
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
  auto bytes = ReadSnapshotFileOr(path);
  if (!bytes) {
    return bytes.error();
  }
  return DescribeSnapshot(*bytes);
}

}  // namespace phtree
