#include "phtree/wal.h"

#include <fcntl.h>
#include <unistd.h>

#include <cstring>
#include <functional>
#include <optional>
#include <utility>

#include "common/byte_io.h"
#include "common/crc32c.h"
#include "common/vfs.h"

namespace phtree {
namespace {

constexpr uint8_t kWalMagic[4] = {'P', 'H', 'W', 'L'};
/// Largest payload any record can legitimately have: opcode + kMaxDims
/// coords + value. Length fields above this are corruption, not data.
constexpr uint32_t kMaxPayloadLen = 1 + kMaxDims * 8 + 8;

struct WalHeader {
  uint32_t version;
  uint32_t dim;
  bool store_values;
};

/// Parses and CRC-verifies the fixed header at the front of `bytes`.
StatusOr<WalHeader> ParseWalHeader(std::span<const uint8_t> bytes) {
  if (bytes.size() < kWalHeaderLen) {
    return Status(StatusCode::kTruncated, bytes.size(),
                  "WAL ends inside the header (need " +
                      std::to_string(kWalHeaderLen) + " bytes, have " +
                      std::to_string(bytes.size()) + ")");
  }
  if (std::memcmp(bytes.data(), kWalMagic, 4) != 0) {
    return Status(StatusCode::kBadMagic, 0, "not a PH-tree WAL");
  }
  const uint32_t stored_crc = LoadU32(bytes.data() + kWalHeaderLen - 4);
  const uint32_t computed = Crc32c(bytes.data(), kWalHeaderLen - 4);
  if (stored_crc != computed) {
    return Status(StatusCode::kHeaderCorrupt, kWalHeaderLen - 4,
                  "WAL header CRC mismatch");
  }
  WalHeader h;
  h.version = LoadU32(bytes.data() + 4);
  if (h.version != kWalVersion) {
    return Status(StatusCode::kUnsupportedVersion, 4,
                  "WAL version " + std::to_string(h.version) +
                      " is not readable by this build (knows " +
                      std::to_string(kWalVersion) + ")");
  }
  h.dim = LoadU32(bytes.data() + 8);
  if (h.dim < 1 || h.dim > kMaxDims) {
    return Status(StatusCode::kHeaderCorrupt, 8,
                  "WAL dimensionality " + std::to_string(h.dim) +
                      " outside [1, " + std::to_string(kMaxDims) + "]");
  }
  h.store_values = bytes[12] != 0;
  return h;
}

/// kHeaderCorrupt unless the log's shape is the one `whom` expects.
Status CheckShape(const WalHeader& h, uint32_t dim, bool store_values,
                  const char* whom) {
  if (h.dim == dim && h.store_values == store_values) {
    return Status::Ok();
  }
  return Status::Error(
      StatusCode::kHeaderCorrupt,
      "WAL shape mismatch: log has dim=" + std::to_string(h.dim) +
          " store_values=" + std::to_string(h.store_values) + ", " + whom +
          " dim=" + std::to_string(dim) +
          " store_values=" + std::to_string(store_values));
}

/// Payload length for an opcode under a given shape, or 0 if the opcode
/// itself is invalid.
uint32_t PayloadLen(WalOp op, uint32_t dim, bool store_values) {
  switch (op) {
    case WalOp::kInsert:
    case WalOp::kInsertOrAssign:
      return 1 + dim * 8 + (store_values ? 8 : 0);
    case WalOp::kErase:
      return 1 + dim * 8;
    case WalOp::kClear:
      return 1;
  }
  return 0;
}

/// Largest frame a record can need.
constexpr size_t kMaxFrameLen = kMaxPayloadLen + kFrameOverhead;

/// Frames one command at `frame` (room for kMaxFrameLen bytes) and returns
/// the frame's size. `key` holds dim words unless op is kClear.
size_t EncodeFrame(WalOp op, std::span<const uint64_t> key, uint64_t value,
                   uint32_t dim, bool store_values, uint8_t* frame) {
  uint8_t* const payload = frame + 4;
  uint8_t* p = payload;
  *p++ = static_cast<uint8_t>(op);
  if (op != WalOp::kClear) {
    for (uint32_t d = 0; d < dim; ++d, p += 8) {
      StoreU64(p, key[d]);
    }
    if (store_values &&
        (op == WalOp::kInsert || op == WalOp::kInsertOrAssign)) {
      StoreU64(p, value);
      p += 8;
    }
  }
  return SealFrame(frame, static_cast<uint32_t>(p - payload));
}

/// Walks the records behind a parsed header, handing each intact one to
/// `apply(op, payload)` (nullptr: walk only), up to the end or the torn
/// tail. The one frame walk: ReplayWal applies the records, WalWriter::Open
/// finds where a resumed log must continue.
StatusOr<WalReplayStats> WalkRecords(
    std::span<const uint8_t> bytes, const WalHeader& h,
    const std::function<void(WalOp, const uint8_t*)>& apply) {
  WalReplayStats stats;
  stats.valid_bytes = kWalHeaderLen;
  size_t pos = kWalHeaderLen;
  auto torn = [&](const std::string& why) {
    stats.torn_tail = true;
    stats.tail_detail = why + " at byte " + std::to_string(pos) +
                        "; log truncated to " +
                        std::to_string(stats.valid_bytes) + " bytes";
    return stats;
  };
  while (pos < bytes.size()) {
    const FrameView frame = ReadFrame(bytes, pos, 1, kMaxPayloadLen);
    switch (frame.fault) {
      case FrameFault::kNone:
        break;
      case FrameFault::kTornLength:
        return torn("torn length field");
      case FrameFault::kBadLength:
        return torn("implausible record length " +
                    std::to_string(frame.payload_len));
      case FrameFault::kTornBody:
        return torn("torn record body");
      case FrameFault::kBadCrc:
        return torn("record CRC mismatch");
    }
    // CRC-verified from here on: undecodable content is a hard error.
    const uint8_t* payload = bytes.data() + frame.payload_begin;
    const WalOp op = static_cast<WalOp>(payload[0]);
    const uint32_t want = PayloadLen(op, h.dim, h.store_values);
    if (want == 0) {
      return Status(StatusCode::kRecordCorrupt, pos + 4,
                    "unknown WAL opcode " + std::to_string(payload[0]));
    }
    if (want != frame.payload_len) {
      return Status(StatusCode::kRecordCorrupt, pos,
                    "WAL record payload is " +
                        std::to_string(frame.payload_len) + " bytes, opcode " +
                        std::to_string(payload[0]) + " needs " +
                        std::to_string(want));
    }
    if (apply) {
      apply(op, payload);
    }
    ++stats.records_applied;
    pos = frame.end;
    stats.valid_bytes = pos;
  }
  return stats;
}

}  // namespace

void EncodeWalHeader(uint32_t dim, bool store_values,
                     std::vector<uint8_t>* out) {
  const size_t base = out->size();
  out->insert(out->end(), kWalMagic, kWalMagic + 4);
  PutU32(out, kWalVersion);
  PutU32(out, dim);
  out->push_back(store_values ? 1 : 0);
  PutU32(out, Crc32c(out->data() + base, out->size() - base));
}

void EncodeWalRecord(const WalCommand& cmd, uint32_t dim, bool store_values,
                     std::vector<uint8_t>* out) {
  uint8_t frame[kMaxFrameLen];
  const size_t len =
      EncodeFrame(cmd.op, cmd.key, cmd.value, dim, store_values, frame);
  out->insert(out->end(), frame, frame + len);
}

// ---- WalWriter ------------------------------------------------------------

WalWriter::~WalWriter() {
  if (fd_ >= 0) {
    CloseRetry(*GetVfs(), fd_);
  }
}

WalWriter::WalWriter(WalWriter&& other) noexcept {
  *this = std::move(other);
}

WalWriter& WalWriter::operator=(WalWriter&& other) noexcept {
  if (this != &other) {
    if (fd_ >= 0) {
      CloseRetry(*GetVfs(), fd_);
    }
    fd_ = std::exchange(other.fd_, -1);
    dim_ = other.dim_;
    store_values_ = other.store_values_;
    poisoned_ = other.poisoned_;
    options_ = other.options_;
    appended_ = other.appended_;
    unsynced_ = other.unsynced_;
  }
  return *this;
}

StatusOr<WalWriter> WalWriter::Open(const std::string& path, uint32_t dim,
                                    bool store_values,
                                    const WalOptions& options) {
  if (dim < 1 || dim > kMaxDims) {
    return Status::Error(StatusCode::kInvalidArgument,
                         "WAL dimensionality " + std::to_string(dim) +
                             " outside [1, " + std::to_string(kMaxDims) + "]");
  }
  bool missing = false;  // a missing log reads as empty: it is started
  auto log = ReadFileOr(path, &missing);
  if (!log) {
    return log.error();
  }
  if (log->size() < kWalHeaderLen) {
    // Fresh log, or one a crash cut inside its header write (no record
    // can follow a torn header): start it over with a durable header, so
    // replay can trust a log of at least header length to start with one.
    log->clear();
    EncodeWalHeader(dim, store_values, &*log);
    if (Status st = WriteFileAtomicOr(path, *log); !st.ok()) {
      return st;
    }
  } else {
    // Existing log: its shape must match, and appends must follow its last
    // intact record, or replay would stop at the torn bytes before them.
    auto header = ParseWalHeader(*log);
    if (!header) {
      return header.error();
    }
    if (Status st = CheckShape(*header, dim, store_values, "writer wants");
        !st.ok()) {
      return st;
    }
    auto walked = WalkRecords(*log, *header, nullptr);
    if (!walked) {
      return walked.error();
    }
    if (walked->torn_tail) {
      const std::span<const uint8_t> intact(log->data(), walked->valid_bytes);
      if (Status st = WriteFileAtomicOr(path, intact); !st.ok()) {
        return st;
      }
    }
  }
  Vfs& vfs = *GetVfs();
  WalWriter w;
  w.dim_ = dim;
  w.store_values_ = store_values;
  w.options_ = options;
  w.fd_ = OpenRetry(vfs, path.c_str(), O_WRONLY, 0);
  if (w.fd_ < 0) {
    return IoError("open " + path);
  }
  if (vfs.Seek(w.fd_, 0, SEEK_END) < 0) {
    return IoError("seek " + path);
  }
  return w;
}

Status WalWriter::CheckWritable() const {
  if (fd_ < 0) {
    return Status::Error(StatusCode::kInvalidArgument,
                         "WAL writer is closed");
  }
  if (poisoned_) {
    return Status::Error(StatusCode::kIoError,
                         "WAL writer failed an earlier write or fsync; "
                         "reopen the log");
  }
  return Status::Ok();
}

Status WalWriter::AppendRecord(WalOp op, std::span<const uint64_t> key,
                               uint64_t value) {
  if (Status st = CheckWritable(); !st.ok()) {
    return st;
  }
  if (op != WalOp::kClear && key.size() != dim_) {
    return Status::Error(StatusCode::kInvalidArgument,
                         "WAL command key has " + std::to_string(key.size()) +
                             " dimensions, log has " + std::to_string(dim_));
  }
  uint8_t frame[kMaxFrameLen];
  const size_t len = EncodeFrame(op, key, value, dim_, store_values_, frame);
  if (Status st = WriteAll(*GetVfs(), fd_, frame, len, "append WAL");
      !st.ok()) {
    poisoned_ = true;
    return st;
  }
  ++appended_;
  if (options_.sync_every_n > 0 && ++unsynced_ >= options_.sync_every_n) {
    return Sync();
  }
  return Status::Ok();
}

Status WalWriter::Append(const WalCommand& cmd) {
  return AppendRecord(cmd.op, cmd.key, cmd.value);
}

Status WalWriter::AppendInsert(std::span<const uint64_t> key,
                               uint64_t value) {
  return AppendRecord(WalOp::kInsert, key, value);
}

Status WalWriter::AppendInsertOrAssign(std::span<const uint64_t> key,
                                       uint64_t value) {
  return AppendRecord(WalOp::kInsertOrAssign, key, value);
}

Status WalWriter::AppendErase(std::span<const uint64_t> key) {
  return AppendRecord(WalOp::kErase, key, 0);
}

Status WalWriter::AppendClear() { return AppendRecord(WalOp::kClear, {}, 0); }

Status WalWriter::Sync() {
  if (Status st = CheckWritable(); !st.ok()) {
    return st;
  }
  if (FsyncRetry(*GetVfs(), fd_) != 0) {
    poisoned_ = true;
    return IoError("fsync WAL");
  }
  unsynced_ = 0;
  return Status::Ok();
}

Status WalWriter::Close() {
  if (fd_ < 0) {
    return Status::Ok();
  }
  Status st = Sync();
  if (CloseRetry(*GetVfs(), fd_) != 0 && st.ok()) {
    st = IoError("close WAL");
  }
  fd_ = -1;
  return st;
}

// ---- Replay ---------------------------------------------------------------

StatusOr<WalReplayStats> ReplayWal(std::span<const uint8_t> bytes,
                                   PhTree* tree) {
  auto header = ParseWalHeader(bytes);
  if (!header) {
    return header.error();
  }
  const bool store_values = header->store_values;
  if (Status st = CheckShape(*header, tree->dim(),
                             tree->config().store_values, "tree has");
      !st.ok()) {
    return st;
  }
  const uint32_t dim = header->dim;
  PhKey key(dim, 0);
  return WalkRecords(bytes, *header, [&](WalOp op, const uint8_t* payload) {
    if (op == WalOp::kClear) {
      tree->Clear();
      return;
    }
    for (uint32_t d = 0; d < dim; ++d) {
      key[d] = LoadU64(payload + 1 + d * 8);
    }
    if (op == WalOp::kErase) {
      tree->Erase(key);
      return;
    }
    const uint64_t value = store_values ? LoadU64(payload + 1 + dim * 8) : 0;
    if (op == WalOp::kInsert) {
      tree->Insert(key, value);
    } else {
      tree->InsertOrAssign(key, value);
    }
  });
}

StatusOr<WalReplayStats> ReplayWalFile(const std::string& path,
                                       PhTree* tree) {
  auto bytes = ReadFileOr(path);
  if (!bytes) {
    return bytes.error();
  }
  return ReplayWal(*bytes, tree);
}

Expected<PhTree, Status> RecoverPhTree(const std::string& snapshot_path,
                                       const std::string& wal_path,
                                       const LoadOptions& options,
                                       WalReplayStats* replay_stats) {
  // Each file is read once. "Missing" is a legitimate recovery state and
  // is told apart from "present but unreadable/corrupt" (an error).
  std::optional<PhTree> tree;
  {
    bool missing = false;
    auto bytes = ReadSnapshotFileOr(snapshot_path, &missing);
    if (!bytes) {
      return bytes.error();
    }
    if (!missing) {
      auto loaded = DeserializePhTreeOr(*bytes, options);
      if (!loaded) {
        return loaded.error();
      }
      tree.emplace(std::move(*loaded));
    }
  }
  bool wal_missing = false;  // a missing log reads as empty
  auto log = ReadFileOr(wal_path, &wal_missing);
  if (!log) {
    return log.error();
  }
  // A log shorter than its header is what a crash before or inside the
  // header write leaves behind: no record reached it, so it counts as
  // absent.
  const bool have_wal = log->size() >= kWalHeaderLen;
  if (!tree) {
    if (!have_wal) {
      return Status::Error(StatusCode::kIoError,
                           "nothing to recover: no snapshot '" +
                               snapshot_path + "' and no WAL record in '" +
                               wal_path + "'");
    }
    // No snapshot: the WAL header alone determines the tree shape.
    auto header = ParseWalHeader(*log);
    if (!header) {
      return header.error();
    }
    PhTreeConfig config;
    config.store_values = header->store_values;
    tree.emplace(header->dim, config);
  }
  if (have_wal) {
    auto stats = ReplayWal(*log, &*tree);
    if (!stats) {
      return stats.error();
    }
    if (replay_stats != nullptr) {
      *replay_stats = *stats;
    }
  }
  return std::move(*tree);
}

}  // namespace phtree
