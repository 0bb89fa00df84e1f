#include "phtree/wal.h"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <utility>

#include "common/crc32c.h"
#include "common/vfs.h"

namespace phtree {
namespace {

constexpr uint8_t kWalMagic[4] = {'P', 'H', 'W', 'L'};
/// Largest payload any record can legitimately have: opcode + kMaxDims
/// coords + value. Length fields above this are corruption, not data.
constexpr uint32_t kMaxPayloadLen = 1 + kMaxDims * 8 + 8;

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

uint32_t GetU32(const uint8_t* p) {
  return static_cast<uint32_t>(p[0]) | static_cast<uint32_t>(p[1]) << 8 |
         static_cast<uint32_t>(p[2]) << 16 | static_cast<uint32_t>(p[3]) << 24;
}

uint64_t GetU64(const uint8_t* p) {
  uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<uint64_t>(p[i]) << (8 * i);
  }
  return v;
}

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
  const uint32_t stored_crc = GetU32(bytes.data() + kWalHeaderLen - 4);
  const uint32_t computed = Crc32c(bytes.data(), kWalHeaderLen - 4);
  if (stored_crc != computed) {
    return Status(StatusCode::kHeaderCorrupt, kWalHeaderLen - 4,
                  "WAL header CRC mismatch");
  }
  WalHeader h;
  h.version = GetU32(bytes.data() + 4);
  if (h.version != kWalVersion) {
    return Status(StatusCode::kUnsupportedVersion, 4,
                  "WAL version " + std::to_string(h.version) +
                      " is not readable by this build (knows " +
                      std::to_string(kWalVersion) + ")");
  }
  h.dim = GetU32(bytes.data() + 8);
  if (h.dim < 1 || h.dim > kMaxDims) {
    return Status(StatusCode::kHeaderCorrupt, 8,
                  "WAL dimensionality " + std::to_string(h.dim) +
                      " outside [1, " + std::to_string(kMaxDims) + "]");
  }
  h.store_values = bytes[12] != 0;
  return h;
}

/// Expected payload length for an opcode under a given shape, or 0 if the
/// opcode itself is invalid.
uint32_t ExpectedPayloadLen(uint8_t opcode, uint32_t dim, bool store_values) {
  switch (static_cast<WalOp>(opcode)) {
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
  std::vector<uint8_t> payload;
  payload.push_back(static_cast<uint8_t>(cmd.op));
  if (cmd.op != WalOp::kClear) {
    for (uint32_t d = 0; d < dim; ++d) {
      PutU64(&payload, cmd.key[d]);
    }
    if (store_values &&
        (cmd.op == WalOp::kInsert || cmd.op == WalOp::kInsertOrAssign)) {
      PutU64(&payload, cmd.value);
    }
  }
  PutU32(out, static_cast<uint32_t>(payload.size()));
  out->insert(out->end(), payload.begin(), payload.end());
  PutU32(out, Crc32c(payload.data(), payload.size()));
}

// ---- WalWriter ------------------------------------------------------------

WalWriter::~WalWriter() {
  if (fd_ >= 0) {
    CloseRetry(*GetVfs(), fd_);
  }
}

WalWriter::WalWriter(WalWriter&& other) noexcept
    : fd_(other.fd_),
      dim_(other.dim_),
      store_values_(other.store_values_),
      options_(other.options_),
      appended_(other.appended_),
      unsynced_(other.unsynced_) {
  other.fd_ = -1;
}

WalWriter& WalWriter::operator=(WalWriter&& other) noexcept {
  if (this != &other) {
    if (fd_ >= 0) {
      CloseRetry(*GetVfs(), fd_);
    }
    fd_ = other.fd_;
    dim_ = other.dim_;
    store_values_ = other.store_values_;
    options_ = other.options_;
    appended_ = other.appended_;
    unsynced_ = other.unsynced_;
    other.fd_ = -1;
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
  Vfs& vfs = *GetVfs();
  const int fd = OpenRetry(vfs, path.c_str(), O_RDWR | O_CREAT, 0644);
  if (fd < 0) {
    return IoError("open " + path);
  }
  uint64_t size = 0;
  bool is_dir = false;
  if (vfs.Stat(fd, &size, &is_dir) != 0 || is_dir) {
    const Status st = is_dir ? Status::Error(StatusCode::kIoError,
                                             path + " is a directory")
                             : IoError("stat " + path);
    CloseRetry(vfs, fd);
    return st;
  }
  WalWriter w;
  w.fd_ = fd;
  w.dim_ = dim;
  w.store_values_ = store_values;
  w.options_ = options;
  if (size == 0) {
    // Fresh (or crashed-before-header) log: write and fsync the header so
    // replay can always trust a non-empty file to start with one.
    std::vector<uint8_t> header;
    EncodeWalHeader(dim, store_values, &header);
    Status st = WriteAll(vfs, fd, header.data(), header.size(),
                         "write WAL header " + path);
    if (st.ok() && FsyncRetry(vfs, fd) != 0) {
      st = IoError("fsync " + path);
    }
    if (!st.ok()) {
      return st;  // w's destructor closes fd
    }
    return w;
  }
  // Existing log: validate its header and check shape compatibility.
  uint8_t buf[kWalHeaderLen];
  const ssize_t got = ReadAll(vfs, fd, buf, sizeof(buf));
  if (got < 0) {
    return IoError("read WAL header " + path);
  }
  auto header = ParseWalHeader({buf, static_cast<size_t>(got)});
  if (!header) {
    return header.error();
  }
  if (header->dim != dim || header->store_values != store_values) {
    return Status::Error(
        StatusCode::kHeaderCorrupt,
        "WAL shape mismatch: log has dim=" + std::to_string(header->dim) +
            " store_values=" + std::to_string(header->store_values) +
            ", writer wants dim=" + std::to_string(dim) +
            " store_values=" + std::to_string(store_values));
  }
  if (vfs.Seek(fd, 0, SEEK_END) < 0) {
    return IoError("seek " + path);
  }
  return w;
}

Status WalWriter::Append(const WalCommand& cmd) {
  if (fd_ < 0) {
    return Status::Error(StatusCode::kInvalidArgument,
                         "WAL writer is closed");
  }
  if (cmd.op != WalOp::kClear && cmd.key.size() != dim_) {
    return Status::Error(StatusCode::kInvalidArgument,
                         "WAL command key has " +
                             std::to_string(cmd.key.size()) +
                             " dimensions, log has " + std::to_string(dim_));
  }
  std::vector<uint8_t> record;
  EncodeWalRecord(cmd, dim_, store_values_, &record);
  const Status st =
      WriteAll(*GetVfs(), fd_, record.data(), record.size(), "append WAL");
  if (!st.ok()) {
    return st;
  }
  ++appended_;
  if (options_.sync_every_n > 0 && ++unsynced_ >= options_.sync_every_n) {
    return Sync();
  }
  return Status::Ok();
}

Status WalWriter::AppendInsert(std::span<const uint64_t> key,
                               uint64_t value) {
  WalCommand cmd;
  cmd.op = WalOp::kInsert;
  cmd.key.assign(key.begin(), key.end());
  cmd.value = value;
  return Append(cmd);
}

Status WalWriter::AppendInsertOrAssign(std::span<const uint64_t> key,
                                       uint64_t value) {
  WalCommand cmd;
  cmd.op = WalOp::kInsertOrAssign;
  cmd.key.assign(key.begin(), key.end());
  cmd.value = value;
  return Append(cmd);
}

Status WalWriter::AppendErase(std::span<const uint64_t> key) {
  WalCommand cmd;
  cmd.op = WalOp::kErase;
  cmd.key.assign(key.begin(), key.end());
  return Append(cmd);
}

Status WalWriter::AppendClear() {
  WalCommand cmd;
  cmd.op = WalOp::kClear;
  return Append(cmd);
}

Status WalWriter::Sync() {
  if (fd_ < 0) {
    return Status::Error(StatusCode::kInvalidArgument,
                         "WAL writer is closed");
  }
  if (FsyncRetry(*GetVfs(), fd_) != 0) {
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
  if (header->dim != tree->dim() ||
      header->store_values != tree->config().store_values) {
    return Status::Error(
        StatusCode::kHeaderCorrupt,
        "WAL shape mismatch: log has dim=" + std::to_string(header->dim) +
            " store_values=" + std::to_string(header->store_values) +
            ", tree has dim=" + std::to_string(tree->dim()) +
            " store_values=" +
            std::to_string(tree->config().store_values));
  }
  const uint32_t dim = header->dim;
  const bool store_values = header->store_values;

  WalReplayStats stats;
  stats.valid_bytes = kWalHeaderLen;
  size_t pos = kWalHeaderLen;
  PhKey key(dim, 0);
  auto torn = [&](const std::string& why) {
    stats.torn_tail = true;
    stats.tail_detail = why + " at byte " + std::to_string(pos) +
                        "; log truncated to " +
                        std::to_string(stats.valid_bytes) + " bytes";
    return stats;
  };
  while (pos < bytes.size()) {
    if (bytes.size() - pos < 4) {
      return torn("torn length field");
    }
    const uint32_t len = GetU32(bytes.data() + pos);
    if (len == 0 || len > kMaxPayloadLen) {
      return torn("implausible record length " + std::to_string(len));
    }
    if (bytes.size() - pos - 4 < static_cast<size_t>(len) + 4) {
      return torn("torn record body");
    }
    const uint8_t* payload = bytes.data() + pos + 4;
    const uint32_t stored_crc = GetU32(payload + len);
    const uint32_t computed = Crc32c(payload, len);
    if (stored_crc != computed) {
      return torn("record CRC mismatch");
    }
    // CRC-verified from here on: undecodable content is a hard error.
    const uint8_t opcode = payload[0];
    const uint32_t want = ExpectedPayloadLen(opcode, dim, store_values);
    if (want == 0) {
      return Status(StatusCode::kRecordCorrupt, pos + 4,
                    "unknown WAL opcode " + std::to_string(opcode));
    }
    if (want != len) {
      return Status(StatusCode::kRecordCorrupt, pos,
                    "WAL record payload is " + std::to_string(len) +
                        " bytes, opcode " + std::to_string(opcode) +
                        " needs " + std::to_string(want));
    }
    const WalOp op = static_cast<WalOp>(opcode);
    if (op == WalOp::kClear) {
      tree->Clear();
    } else {
      for (uint32_t d = 0; d < dim; ++d) {
        key[d] = GetU64(payload + 1 + d * 8);
      }
      switch (op) {
        case WalOp::kInsert:
          tree->Insert(key,
                       store_values ? GetU64(payload + 1 + dim * 8) : 0);
          break;
        case WalOp::kInsertOrAssign:
          tree->InsertOrAssign(
              key, store_values ? GetU64(payload + 1 + dim * 8) : 0);
          break;
        case WalOp::kErase:
          tree->Erase(key);
          break;
        case WalOp::kClear:
          break;  // unreachable
      }
    }
    ++stats.records_applied;
    pos += 4 + len + 4;
    stats.valid_bytes = pos;
  }
  return stats;
}

StatusOr<WalReplayStats> ReplayWalFile(const std::string& path,
                                       PhTree* tree) {
  Vfs& vfs = *GetVfs();
  const int fd = OpenRetry(vfs, path.c_str(), O_RDONLY, 0);
  if (fd < 0) {
    return IoError("open " + path);
  }
  uint64_t size = 0;
  bool is_dir = false;
  if (vfs.Stat(fd, &size, &is_dir) != 0 || is_dir) {
    const Status st = is_dir ? Status::Error(StatusCode::kIoError,
                                             path + " is a directory")
                             : IoError("stat " + path);
    CloseRetry(vfs, fd);
    return st;
  }
  std::vector<uint8_t> bytes(static_cast<size_t>(size));
  const ssize_t got = ReadAll(vfs, fd, bytes.data(), bytes.size());
  CloseRetry(vfs, fd);
  if (got < 0) {
    return IoError("read " + path);
  }
  bytes.resize(static_cast<size_t>(got));
  return ReplayWal(bytes, tree);
}

Expected<PhTree, Status> RecoverPhTree(const std::string& snapshot_path,
                                       const std::string& wal_path,
                                       const LoadOptions& options,
                                       WalReplayStats* replay_stats) {
  Vfs& vfs = *GetVfs();
  // Probe both files first so "missing" (a legitimate recovery state) can
  // be told apart from "present but unreadable/corrupt" (an error).
  auto probe = [&vfs](const std::string& path, uint64_t* size) {
    const int fd = OpenRetry(vfs, path.c_str(), O_RDONLY, 0);
    if (fd < 0) {
      return errno == ENOENT ? 0 : -1;  // 0 = absent, -1 = error
    }
    bool is_dir = false;
    if (vfs.Stat(fd, size, &is_dir) != 0) {
      CloseRetry(vfs, fd);
      return -1;
    }
    CloseRetry(vfs, fd);
    return 1;  // present
  };
  uint64_t snap_size = 0;
  uint64_t wal_size = 0;
  const int snap_state = probe(snapshot_path, &snap_size);
  if (snap_state < 0) {
    return IoError("open " + snapshot_path);
  }
  const int wal_state = probe(wal_path, &wal_size);
  if (wal_state < 0) {
    return IoError("open " + wal_path);
  }
  // A zero-length WAL is what a crash before the header fsync leaves
  // behind: treat it as absent.
  const bool have_wal = wal_state == 1 && wal_size > 0;
  if (snap_state == 0 && !have_wal) {
    return Status::Error(StatusCode::kIoError,
                         "nothing to recover: neither snapshot '" +
                             snapshot_path + "' nor WAL '" + wal_path +
                             "' exists");
  }

  if (snap_state == 1) {
    auto tree = LoadPhTreeOr(snapshot_path, options);
    if (!tree) {
      return tree.error();
    }
    if (have_wal) {
      auto stats = ReplayWalFile(wal_path, &*tree);
      if (!stats) {
        return stats.error();
      }
      if (replay_stats != nullptr) {
        *replay_stats = *stats;
      }
    }
    return std::move(*tree);
  }

  // No snapshot: the WAL header alone determines the tree shape.
  const int fd = OpenRetry(vfs, wal_path.c_str(), O_RDONLY, 0);
  if (fd < 0) {
    return IoError("open " + wal_path);
  }
  uint8_t buf[kWalHeaderLen];
  const ssize_t got = ReadAll(vfs, fd, buf, sizeof(buf));
  CloseRetry(vfs, fd);
  if (got < 0) {
    return IoError("read " + wal_path);
  }
  auto header = ParseWalHeader({buf, static_cast<size_t>(got)});
  if (!header) {
    return header.error();
  }
  PhTreeConfig config;
  config.store_values = header->store_values;
  PhTree tree(header->dim, config);
  auto stats = ReplayWalFile(wal_path, &tree);
  if (!stats) {
    return stats.error();
  }
  if (replay_stats != nullptr) {
    *replay_stats = *stats;
  }
  return tree;
}

}  // namespace phtree
