// Virtual file-system seam for the durable-save and WAL paths. All snapshot
// and log I/O (common/byte_io.cc, wal.cc) goes through the process-wide Vfs, so
// tests can substitute a FaultyVfs that injects ENOSPC, EINTR, short writes,
// failed fsync, and crash points (after N bytes the "process dies": the last
// write is cut short and every later call fails). The default RealVfs is a
// thin veneer over the POSIX calls.
#ifndef PHTREE_COMMON_VFS_H_
#define PHTREE_COMMON_VFS_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>
#include <sys/types.h>

#include "common/status.h"

namespace phtree {

/// Syscall-shaped file-system interface. Every method mirrors its POSIX
/// namesake: negative return (or -1) means failure with the error code in
/// errno, exactly like the raw calls, so call sites keep their existing
/// errno handling.
class Vfs {
 public:
  virtual ~Vfs() = default;

  virtual int Open(const char* path, int flags, mode_t mode) = 0;
  virtual ssize_t Read(int fd, void* buf, size_t n) = 0;
  virtual ssize_t Write(int fd, const void* buf, size_t n) = 0;
  virtual int Fsync(int fd) = 0;
  virtual int Close(int fd) = 0;
  virtual int Rename(const char* from, const char* to) = 0;
  virtual int Unlink(const char* path) = 0;
  virtual off_t Seek(int fd, off_t offset, int whence) = 0;
  /// fstat: on success fills `*size` and `*is_dir` and returns 0.
  virtual int Stat(int fd, uint64_t* size, bool* is_dir) = 0;
};

/// Pass-through to the host file system.
class RealVfs : public Vfs {
 public:
  int Open(const char* path, int flags, mode_t mode) override;
  ssize_t Read(int fd, void* buf, size_t n) override;
  ssize_t Write(int fd, const void* buf, size_t n) override;
  int Fsync(int fd) override;
  int Close(int fd) override;
  int Rename(const char* from, const char* to) override;
  int Unlink(const char* path) override;
  off_t Seek(int fd, off_t offset, int whence) override;
  int Stat(int fd, uint64_t* size, bool* is_dir) override;
};

/// The process-wide VFS used by all snapshot/WAL I/O. Never null.
Vfs* GetVfs();

/// Installs `vfs` (nullptr restores the real file system). Returns the
/// previously installed override, or nullptr if none. Caller keeps
/// ownership.
Vfs* SetVfs(Vfs* vfs);

// ---- Retrying I/O over a Vfs ----------------------------------------------
//
// The byte layer (common/byte_io.h) and the WAL writer build on these.
// Open/fsync/close retry on EINTR (a real signal must not fail a save);
// the full-transfer loops also absorb short transfers.

/// kIoError whose message is `what` plus the current errno text.
Status IoError(const std::string& what);

int OpenRetry(Vfs& vfs, const char* path, int flags, mode_t mode);
int FsyncRetry(Vfs& vfs, int fd);

/// close(2) retried on EINTR. POSIX leaves the fd state unspecified after
/// EINTR, but on Linux the fd is guaranteed still open, and the VFS
/// contract matches Linux (FaultyVfs keeps the fd open on simulated EINTR).
int CloseRetry(Vfs& vfs, int fd);

/// Writes all `n` bytes; on failure returns IoError(what).
Status WriteAll(Vfs& vfs, int fd, const uint8_t* data, size_t n,
                const std::string& what);

/// Reads until `n` bytes or end of file. Returns the bytes read (short only
/// at end of file), or -1 with errno set.
ssize_t ReadAll(Vfs& vfs, int fd, uint8_t* data, size_t n);

/// RAII helper: installs a VFS for the current scope.
class ScopedVfs {
 public:
  explicit ScopedVfs(Vfs* vfs) : prev_(SetVfs(vfs)) {}
  ~ScopedVfs() { SetVfs(prev_); }
  ScopedVfs(const ScopedVfs&) = delete;
  ScopedVfs& operator=(const ScopedVfs&) = delete;

 private:
  Vfs* prev_;
};

/// Fault-injecting VFS, layered over a base VFS (default: the real one).
/// Three independent mechanisms, all deterministic:
///  - FaultInjector sites (kVfsOpen/Read/Write/Fsync/Close/Rename): when the
///    installed injector fires, the call fails hard with a site-appropriate
///    errno (write -> ENOSPC, fsync/rename -> EIO, open -> EACCES, ...).
///  - EINTR period: every `n`th syscall first returns EINTR (retry succeeds),
///    exercising the callers' retry loops.
///  - Short writes: writes are capped at `cap` bytes per call.
///  - Crash point: a write budget in bytes. Writes consume it; the write
///    that exhausts it is truncated to the remaining budget (a torn final
///    record) and the VFS goes dead() — every subsequent call fails EIO,
///    modelling the process dying mid-save. What reached the file before
///    the crash is exactly what a recovery run will see.
class FaultyVfs : public Vfs {
 public:
  explicit FaultyVfs(Vfs* base = nullptr);

  /// Every `n`th intercepted syscall first fails with EINTR (0 = off).
  void set_eintr_period(uint64_t n) { eintr_period_ = n; }

  /// Cap each Write call at `cap` bytes (0 = off).
  void set_short_write_cap(size_t cap) { short_write_cap_ = cap; }

  /// Arm the crash point: after `bytes` further written bytes the VFS dies.
  void SetWriteBudget(uint64_t bytes);

  /// Disarm the crash point and revive the VFS.
  void ClearWriteBudget();

  bool dead() const { return dead_.load(std::memory_order_relaxed); }
  uint64_t bytes_written() const {
    return bytes_written_.load(std::memory_order_relaxed);
  }

  int Open(const char* path, int flags, mode_t mode) override;
  ssize_t Read(int fd, void* buf, size_t n) override;
  ssize_t Write(int fd, const void* buf, size_t n) override;
  int Fsync(int fd) override;
  int Close(int fd) override;
  int Rename(const char* from, const char* to) override;
  int Unlink(const char* path) override;
  off_t Seek(int fd, off_t offset, int whence) override;
  int Stat(int fd, uint64_t* size, bool* is_dir) override;

 private:
  // FaultSite is mapped from this tag in vfs.cc so that VFS users don't
  // need fault.h.
  enum class FaultSiteTag : uint8_t {
    kOpen, kRead, kWrite, kFsync, kClose, kRename,
  };

  /// Common entry: returns an errno to fail with, or 0 to pass through.
  int Intercept(FaultSiteTag tag, int fail_errno);
  bool EintrDue();

  Vfs* base_;
  uint64_t eintr_period_ = 0;
  size_t short_write_cap_ = 0;
  std::atomic<uint64_t> call_count_{0};
  std::atomic<bool> budget_armed_{false};
  std::atomic<bool> dead_{false};
  std::atomic<uint64_t> budget_{0};
  std::atomic<uint64_t> bytes_written_{0};
};

}  // namespace phtree

#endif  // PHTREE_COMMON_VFS_H_
