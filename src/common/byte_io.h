// The byte layer the two durable formats share, the v2 snapshot
// (phtree/serialize.h) and the write-ahead log (phtree/wal.h): the
// little-endian field codec, the framed record both chunk their data into
// (len u32 | payload | CRC32C of the payload u32), the whole-file reader
// and the atomic durable writer. Each format keeps its own header, payload
// layout, error classes and messages. All file I/O goes through the
// process-wide Vfs (common/vfs.h).
#ifndef PHTREE_COMMON_BYTE_IO_H_
#define PHTREE_COMMON_BYTE_IO_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/status.h"

namespace phtree {

// ---- Little-endian fields -------------------------------------------------

inline void StoreU32(uint8_t* p, uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    p[i] = static_cast<uint8_t>(v >> (8 * i));
  }
}

inline void StoreU64(uint8_t* p, uint64_t v) {
  StoreU32(p, static_cast<uint32_t>(v));
  StoreU32(p + 4, static_cast<uint32_t>(v >> 32));
}

inline uint32_t LoadU32(const uint8_t* p) {
  return static_cast<uint32_t>(p[0]) | static_cast<uint32_t>(p[1]) << 8 |
         static_cast<uint32_t>(p[2]) << 16 | static_cast<uint32_t>(p[3]) << 24;
}

inline uint64_t LoadU64(const uint8_t* p) {
  return LoadU32(p) | static_cast<uint64_t>(LoadU32(p + 4)) << 32;
}

/// Appends the low `bytes` bytes of `v` to `out`, little-endian.
inline void PutLe(std::vector<uint8_t>* out, uint64_t v, int bytes) {
  for (int i = 0; i < bytes; ++i) {
    out->push_back(static_cast<uint8_t>(v >> (8 * i)));
  }
}
inline void PutU32(std::vector<uint8_t>* out, uint32_t v) { PutLe(out, v, 4); }
inline void PutU64(std::vector<uint8_t>* out, uint64_t v) { PutLe(out, v, 8); }

/// Bounds-checked little-endian reader over bytes [begin, end) of `data`.
/// Reads never run past `end`; a failed read (or Fail()) trips ok() and
/// freezes pos() at the spot the stream fell short, which becomes the
/// reported error offset.
class ByteReader {
 public:
  ByteReader(const uint8_t* data, size_t begin, size_t end)
      : data_(data), pos_(begin), end_(end) {}

  bool ok() const { return ok_; }
  bool AtEnd() const { return pos_ == end_; }
  size_t pos() const { return pos_; }
  size_t remaining() const { return end_ - pos_; }
  void Fail() { ok_ = false; }

  uint8_t GetU8() {
    if (!ok_ || pos_ + 1 > end_) {
      ok_ = false;
      return 0;
    }
    return data_[pos_++];
  }
  uint32_t GetU32() { return static_cast<uint32_t>(GetLe(4)); }
  uint64_t GetU64() { return GetLe(8); }

 private:
  uint64_t GetLe(int bytes) {
    uint64_t v = 0;
    for (int i = 0; i < bytes; ++i) {
      v |= static_cast<uint64_t>(GetU8()) << (8 * i);
    }
    return v;
  }

  const uint8_t* data_;
  size_t pos_;
  size_t end_;
  bool ok_ = true;
};

// ---- Framed records -------------------------------------------------------

/// Bytes a frame adds around its payload: the length field and the CRC.
inline constexpr size_t kFrameOverhead = 8;

/// Seals the frame at `frame` in place: its `payload_len` payload bytes
/// already sit at frame + 4, with 4 free bytes behind them. Writes the
/// length in front and the payload's CRC32C behind; returns the frame size.
size_t SealFrame(uint8_t* frame, uint32_t payload_len);

/// The first check ReadFrame found failing.
enum class FrameFault : uint8_t {
  kNone,
  kTornLength,  ///< fewer than 4 bytes left for the length field
  kBadLength,   ///< the length lies outside the caller's [min, max]
  kTornBody,    ///< the payload and CRC run past the end of the bytes
  kBadCrc,      ///< whole, but the stored CRC does not match the payload
};

/// A frame's bounds: payload_len is set from kBadLength on, the rest for
/// kNone and kBadCrc only.
struct FrameView {
  FrameFault fault = FrameFault::kNone;
  uint32_t payload_len = 0;
  size_t payload_begin = 0;
  size_t crc_offset = 0;
  size_t end = 0;  ///< one past the CRC: where the next frame starts
  uint32_t stored_crc = 0;
  uint32_t computed_crc = 0;
};

/// Reads the frame whose length field starts at `pos` (<= bytes.size()),
/// accepting payload lengths in [min_len, max_len].
FrameView ReadFrame(std::span<const uint8_t> bytes, size_t pos,
                    uint32_t min_len, uint32_t max_len);

// ---- Whole files ----------------------------------------------------------

/// Reads the whole file at `path`. Failures are kIoError: a failing call
/// (with its errno text), a directory, or a file that shrank while read.
/// With `missing` non-null, a file that does not exist is no error:
/// *missing is set and the buffer is empty.
StatusOr<std::vector<uint8_t>> ReadFileOr(const std::string& path,
                                          bool* missing = nullptr);

/// Atomically and durably replaces the file at `path` with `bytes`: they
/// go to `path + ".tmp"`, which is fsync'd and renamed over `path`, and
/// the parent directory is fsync'd. A crash at any point leaves either the
/// old file or the new one, never a torn one. Errors are kIoError.
Status WriteFileAtomicOr(const std::string& path,
                         std::span<const uint8_t> bytes);

}  // namespace phtree

#endif  // PHTREE_COMMON_BYTE_IO_H_
