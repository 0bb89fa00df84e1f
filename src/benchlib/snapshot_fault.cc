#include "benchlib/snapshot_fault.h"

#include <algorithm>

#include "common/byte_io.h"
#include "common/crc32c.h"
#include "phtree/validate.h"

namespace phtree {

SnapshotRegion RegionOf(const SnapshotLayout& layout, size_t offset) {
  if (offset < layout.header_end) {
    return SnapshotRegion::kHeader;
  }
  for (const auto& rec : layout.records) {
    if (offset < rec.payload_begin) {
      return SnapshotRegion::kRecordLength;
    }
    if (offset < rec.crc_offset) {
      return SnapshotRegion::kRecordPayload;
    }
    if (offset < rec.end) {
      return SnapshotRegion::kRecordCrc;
    }
  }
  return SnapshotRegion::kTrailer;
}

const char* SnapshotRegionName(SnapshotRegion region) {
  switch (region) {
    case SnapshotRegion::kHeader: return "header";
    case SnapshotRegion::kRecordLength: return "record-length";
    case SnapshotRegion::kRecordPayload: return "record-payload";
    case SnapshotRegion::kRecordCrc: return "record-crc";
    case SnapshotRegion::kTrailer: return "trailer";
  }
  return "unknown";
}

std::vector<uint8_t> TruncateSnapshot(const std::vector<uint8_t>& bytes,
                                      size_t len) {
  return std::vector<uint8_t>(bytes.begin(),
                              bytes.begin() + static_cast<long>(
                                  std::min(len, bytes.size())));
}

std::vector<uint8_t> FlipBit(const std::vector<uint8_t>& bytes, size_t bit) {
  std::vector<uint8_t> out = bytes;
  out[bit / 8] ^= static_cast<uint8_t>(1u << (bit % 8));
  return out;
}

std::vector<uint8_t> SwapRecords(const std::vector<uint8_t>& bytes,
                                 const SnapshotLayout& layout, size_t i,
                                 size_t j) {
  if (i == j) {
    return bytes;  // swapping a record with itself is the identity
  }
  if (i > j) {
    std::swap(i, j);
  }
  const auto& a = layout.records[i];
  const auto& b = layout.records[j];
  std::vector<uint8_t> out;
  out.reserve(bytes.size());
  out.insert(out.end(), bytes.begin(), bytes.begin() + a.begin);
  out.insert(out.end(), bytes.begin() + b.begin, bytes.begin() + b.end);
  out.insert(out.end(), bytes.begin() + a.end, bytes.begin() + b.begin);
  out.insert(out.end(), bytes.begin() + a.begin, bytes.begin() + a.end);
  out.insert(out.end(), bytes.begin() + b.end, bytes.end());
  return out;
}

std::vector<uint8_t> DropRecord(const std::vector<uint8_t>& bytes,
                                const SnapshotLayout& layout, size_t i) {
  const auto& rec = layout.records[i];
  std::vector<uint8_t> out;
  out.reserve(bytes.size() - (rec.end - rec.begin));
  out.insert(out.end(), bytes.begin(), bytes.begin() + rec.begin);
  out.insert(out.end(), bytes.begin() + rec.end, bytes.end());
  return out;
}

std::vector<uint8_t> DuplicateRecord(const std::vector<uint8_t>& bytes,
                                     const SnapshotLayout& layout, size_t i) {
  const auto& rec = layout.records[i];
  std::vector<uint8_t> out;
  out.reserve(bytes.size() + (rec.end - rec.begin));
  out.insert(out.end(), bytes.begin(), bytes.begin() + rec.end);
  out.insert(out.end(), bytes.begin() + rec.begin, bytes.begin() + rec.end);
  out.insert(out.end(), bytes.begin() + rec.end, bytes.end());
  return out;
}

bool RepairSnapshotChecksums(std::vector<uint8_t>* bytes) {
  auto layout = DescribeSnapshot(*bytes);
  if (!layout) {
    return false;
  }
  uint8_t* data = bytes->data();
  StoreU32(data + layout->header_end - 4,
           Crc32c(data, layout->header_end - 4));
  for (const auto& rec : layout->records) {
    SealFrame(data + rec.begin,
              static_cast<uint32_t>(rec.crc_offset - rec.payload_begin));
  }
  StoreU32(data + layout->trailer_end - 4,
           Crc32c(data, layout->trailer_begin));
  return true;
}

std::string CheckMutatedSnapshot(const std::vector<uint8_t>& mutated,
                                 StatusCode* code_out) {
  LoadOptions paranoid;
  paranoid.validate_structure = true;
  auto result = DeserializePhTreeOr(mutated, paranoid);
  if (!result) {
    if (result.error().code() == StatusCode::kOk) {
      return "loader rejected the stream but reported StatusCode::kOk";
    }
    if (code_out != nullptr) {
      *code_out = result.error().code();
    }
    return "";
  }
  if (code_out != nullptr) {
    *code_out = StatusCode::kOk;
  }
  // Accepted: the rebuilt tree must be structurally sound (belt and braces —
  // validate_structure already ran inside the loader).
  const std::string violation = ValidatePhTree(*result);
  if (!violation.empty()) {
    return "loader accepted a structurally broken tree: " + violation;
  }
  return "";
}

}  // namespace phtree
