#include "common/vfs.h"

#include <cerrno>
#include <cstring>
#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include "common/fault.h"

namespace phtree {
namespace {

RealVfs g_real_vfs;
std::atomic<Vfs*> g_vfs_override{nullptr};

}  // namespace

// ---- RealVfs ---------------------------------------------------------------

int RealVfs::Open(const char* path, int flags, mode_t mode) {
  return ::open(path, flags, mode);
}

ssize_t RealVfs::Read(int fd, void* buf, size_t n) {
  return ::read(fd, buf, n);
}

ssize_t RealVfs::Write(int fd, const void* buf, size_t n) {
  return ::write(fd, buf, n);
}

int RealVfs::Fsync(int fd) { return ::fsync(fd); }

int RealVfs::Close(int fd) { return ::close(fd); }

int RealVfs::Rename(const char* from, const char* to) {
  return ::rename(from, to);
}

int RealVfs::Unlink(const char* path) { return ::unlink(path); }

off_t RealVfs::Seek(int fd, off_t offset, int whence) {
  return ::lseek(fd, offset, whence);
}

int RealVfs::Stat(int fd, uint64_t* size, bool* is_dir) {
  struct stat st;
  if (::fstat(fd, &st) != 0) {
    return -1;
  }
  *size = static_cast<uint64_t>(st.st_size);
  *is_dir = S_ISDIR(st.st_mode);
  return 0;
}

Vfs* GetVfs() {
  Vfs* v = g_vfs_override.load(std::memory_order_acquire);
  return v != nullptr ? v : &g_real_vfs;
}

Vfs* SetVfs(Vfs* vfs) {
  return g_vfs_override.exchange(vfs, std::memory_order_acq_rel);
}

// ---- Retrying I/O -----------------------------------------------------------

Status IoError(const std::string& what) {
  return Status(StatusCode::kIoError, Status::kNoOffset,
                what + ": " + std::strerror(errno));
}

int OpenRetry(Vfs& vfs, const char* path, int flags, mode_t mode) {
  for (;;) {
    const int fd = vfs.Open(path, flags, mode);
    if (fd >= 0 || errno != EINTR) {
      return fd;
    }
  }
}

int FsyncRetry(Vfs& vfs, int fd) {
  for (;;) {
    const int rc = vfs.Fsync(fd);
    if (rc == 0 || errno != EINTR) {
      return rc;
    }
  }
}

int CloseRetry(Vfs& vfs, int fd) {
  for (;;) {
    const int rc = vfs.Close(fd);
    if (rc == 0 || errno != EINTR) {
      return rc;
    }
  }
}

Status WriteAll(Vfs& vfs, int fd, const uint8_t* data, size_t n,
                const std::string& what) {
  size_t off = 0;
  while (off < n) {
    const ssize_t w = vfs.Write(fd, data + off, n - off);
    if (w < 0) {
      if (errno == EINTR) {
        continue;
      }
      return IoError(what);
    }
    off += static_cast<size_t>(w);
  }
  return Status::Ok();
}

ssize_t ReadAll(Vfs& vfs, int fd, uint8_t* data, size_t n) {
  size_t off = 0;
  while (off < n) {
    const ssize_t r = vfs.Read(fd, data + off, n - off);
    if (r < 0) {
      if (errno == EINTR) {
        continue;
      }
      return -1;
    }
    if (r == 0) {
      break;
    }
    off += static_cast<size_t>(r);
  }
  return static_cast<ssize_t>(off);
}

// ---- FaultyVfs -------------------------------------------------------------

FaultyVfs::FaultyVfs(Vfs* base) : base_(base != nullptr ? base : &g_real_vfs) {}

void FaultyVfs::SetWriteBudget(uint64_t bytes) {
  budget_.store(bytes, std::memory_order_relaxed);
  dead_.store(false, std::memory_order_relaxed);
  budget_armed_.store(true, std::memory_order_relaxed);
}

void FaultyVfs::ClearWriteBudget() {
  budget_armed_.store(false, std::memory_order_relaxed);
  dead_.store(false, std::memory_order_relaxed);
}

bool FaultyVfs::EintrDue() {
  if (eintr_period_ == 0) {
    return false;
  }
  const uint64_t c = call_count_.fetch_add(1, std::memory_order_relaxed) + 1;
  return c % eintr_period_ == 0;
}

int FaultyVfs::Intercept(FaultSiteTag tag, int fail_errno) {
  if (dead_.load(std::memory_order_relaxed)) {
    return EIO;
  }
  FaultSite site;
  switch (tag) {
    case FaultSiteTag::kOpen: site = FaultSite::kVfsOpen; break;
    case FaultSiteTag::kRead: site = FaultSite::kVfsRead; break;
    case FaultSiteTag::kWrite: site = FaultSite::kVfsWrite; break;
    case FaultSiteTag::kFsync: site = FaultSite::kVfsFsync; break;
    case FaultSiteTag::kClose: site = FaultSite::kVfsClose; break;
    case FaultSiteTag::kRename: site = FaultSite::kVfsRename; break;
    default: site = FaultSite::kVfsWrite; break;
  }
  if (FaultHit(site)) {
    return fail_errno;
  }
  // rename(2) is not an interruptible syscall — POSIX does not allow it to
  // fail with EINTR, so callers rightly never retry it.
  if (tag != FaultSiteTag::kRename && EintrDue()) {
    return EINTR;
  }
  return 0;
}

int FaultyVfs::Open(const char* path, int flags, mode_t mode) {
  if (int e = Intercept(FaultSiteTag::kOpen, EACCES); e != 0) {
    errno = e;
    return -1;
  }
  return base_->Open(path, flags, mode);
}

ssize_t FaultyVfs::Read(int fd, void* buf, size_t n) {
  if (int e = Intercept(FaultSiteTag::kRead, EIO); e != 0) {
    errno = e;
    return -1;
  }
  return base_->Read(fd, buf, n);
}

ssize_t FaultyVfs::Write(int fd, const void* buf, size_t n) {
  if (int e = Intercept(FaultSiteTag::kWrite, ENOSPC); e != 0) {
    errno = e;
    return -1;
  }
  size_t take = n;
  if (short_write_cap_ > 0 && take > short_write_cap_) {
    take = short_write_cap_;
  }
  if (budget_armed_.load(std::memory_order_relaxed)) {
    const uint64_t left = budget_.load(std::memory_order_relaxed);
    if (take >= left) {
      // The crash point: the final write is torn at the budget boundary and
      // the process "dies" — all later calls fail EIO.
      take = static_cast<size_t>(left);
      dead_.store(true, std::memory_order_relaxed);
      budget_.store(0, std::memory_order_relaxed);
      if (take == 0) {
        errno = EIO;
        return -1;
      }
    } else {
      budget_.store(left - take, std::memory_order_relaxed);
    }
  }
  const ssize_t r = base_->Write(fd, buf, take);
  if (r > 0) {
    bytes_written_.fetch_add(static_cast<uint64_t>(r),
                             std::memory_order_relaxed);
  }
  return r;
}

int FaultyVfs::Fsync(int fd) {
  if (int e = Intercept(FaultSiteTag::kFsync, EIO); e != 0) {
    errno = e;
    return -1;
  }
  return base_->Fsync(fd);
}

int FaultyVfs::Close(int fd) {
  // Hard failures still release the descriptor (otherwise fault sweeps
  // leak fds), but a simulated EINTR must leave it open so the caller's
  // retry can succeed.
  if (dead_.load(std::memory_order_relaxed) ||
      FaultHit(FaultSite::kVfsClose)) {
    base_->Close(fd);
    errno = EIO;
    return -1;
  }
  if (EintrDue()) {
    errno = EINTR;
    return -1;
  }
  return base_->Close(fd);
}

int FaultyVfs::Rename(const char* from, const char* to) {
  if (int e = Intercept(FaultSiteTag::kRename, EIO); e != 0) {
    errno = e;
    return -1;
  }
  return base_->Rename(from, to);
}

int FaultyVfs::Unlink(const char* path) {
  if (dead_.load(std::memory_order_relaxed)) {
    errno = EIO;
    return -1;
  }
  return base_->Unlink(path);
}

off_t FaultyVfs::Seek(int fd, off_t offset, int whence) {
  if (dead_.load(std::memory_order_relaxed)) {
    errno = EIO;
    return -1;
  }
  return base_->Seek(fd, offset, whence);
}

int FaultyVfs::Stat(int fd, uint64_t* size, bool* is_dir) {
  if (dead_.load(std::memory_order_relaxed)) {
    errno = EIO;
    return -1;
  }
  return base_->Stat(fd, size, is_dir);
}

}  // namespace phtree
