#include "common/byte_io.h"

#include <fcntl.h>

#include <cerrno>

#include "common/crc32c.h"
#include "common/vfs.h"

namespace phtree {
namespace {

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
  Status st;
  if (FsyncRetry(vfs, dfd) != 0 && errno != EINVAL && errno != ENOTSUP) {
    st = IoError("fsync directory " + dir);
  }
  CloseRetry(vfs, dfd);
  return st;
}

}  // namespace

size_t SealFrame(uint8_t* frame, uint32_t payload_len) {
  StoreU32(frame, payload_len);
  StoreU32(frame + 4 + payload_len, Crc32c(frame + 4, payload_len));
  return payload_len + kFrameOverhead;
}

FrameView ReadFrame(std::span<const uint8_t> bytes, size_t pos,
                    uint32_t min_len, uint32_t max_len) {
  FrameView f;
  if (bytes.size() - pos < 4) {
    f.fault = FrameFault::kTornLength;
    return f;
  }
  f.payload_len = LoadU32(bytes.data() + pos);
  if (f.payload_len < min_len || f.payload_len > max_len) {
    f.fault = FrameFault::kBadLength;
    return f;
  }
  if (bytes.size() - pos - 4 < static_cast<size_t>(f.payload_len) + 4) {
    f.fault = FrameFault::kTornBody;
    return f;
  }
  f.payload_begin = pos + 4;
  f.crc_offset = f.payload_begin + f.payload_len;
  f.end = f.crc_offset + 4;
  f.stored_crc = LoadU32(bytes.data() + f.crc_offset);
  f.computed_crc = Crc32c(bytes.data() + f.payload_begin, f.payload_len);
  if (f.stored_crc != f.computed_crc) {
    f.fault = FrameFault::kBadCrc;
  }
  return f;
}

StatusOr<std::vector<uint8_t>> ReadFileOr(const std::string& path,
                                          bool* missing) {
  if (missing != nullptr) {
    *missing = false;
  }
  Vfs& vfs = *GetVfs();
  const int fd = OpenRetry(vfs, path.c_str(), O_RDONLY, 0);
  if (fd < 0) {
    if (missing != nullptr && errno == ENOENT) {
      *missing = true;
      return std::vector<uint8_t>();
    }
    return IoError("open " + path);
  }
  uint64_t size = 0;
  bool is_dir = false;
  std::vector<uint8_t> bytes;
  Status st;
  if (vfs.Stat(fd, &size, &is_dir) != 0) {
    st = IoError("stat " + path);
  } else if (is_dir) {
    st = Status::Error(StatusCode::kIoError, path + " is a directory");
  } else {
    bytes.resize(static_cast<size_t>(size));
    const ssize_t got = ReadAll(vfs, fd, bytes.data(), bytes.size());
    if (got < 0) {
      st = IoError("read " + path);
    } else if (static_cast<size_t>(got) < bytes.size()) {
      st = Status::Error(StatusCode::kIoError,
                         "short read on " + path + ": got " +
                             std::to_string(got) + " of " +
                             std::to_string(bytes.size()) + " bytes");
    }
  }
  CloseRetry(vfs, fd);
  if (!st.ok()) {
    return st;
  }
  return bytes;
}

Status WriteFileAtomicOr(const std::string& path,
                         std::span<const uint8_t> bytes) {
  Vfs& vfs = *GetVfs();
  const std::string tmp = path + ".tmp";
  const int fd = OpenRetry(vfs, tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC,
                           0644);
  if (fd < 0) {
    return IoError("open " + tmp);
  }
  Status st = WriteAll(vfs, fd, bytes.data(), bytes.size(), "write " + tmp);
  if (st.ok() && FsyncRetry(vfs, fd) != 0) {
    st = IoError("fsync " + tmp);
  }
  if (CloseRetry(vfs, fd) != 0 && st.ok()) {
    st = IoError("close " + tmp);
  }
  if (st.ok() && vfs.Rename(tmp.c_str(), path.c_str()) != 0) {
    st = IoError("rename " + tmp + " -> " + path);
  }
  if (!st.ok()) {
    vfs.Unlink(tmp.c_str());
    return st;
  }
  return FsyncParentDir(path);
}

}  // namespace phtree
