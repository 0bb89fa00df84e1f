// In-memory file system behind the library's Vfs seam (common/vfs.h).
//
// The ttl_durable workload and the WAL/snapshot probes write through the
// real WalWriter, WriteSnapshotFileOr and RecoverPhTree code, but into
// this map instead of a disk: the benchmark must read and write only its
// own checkout, and a device's fsync latency varies by tens of percent
// from run to run, which would drown the software cost being measured.
// Fsync succeeds at once and is only counted. Not thread-safe: one thread
// drives all I/O of a run.
#ifndef PHBENCH_MEM_VFS_H_
#define PHBENCH_MEM_VFS_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/vfs.h"

namespace phbench {

class MemVfs : public phtree::Vfs {
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

  /// Size of the file at `path`, or 0 if it does not exist.
  uint64_t FileSize(const std::string& path) const;

 private:
  using File = std::vector<uint8_t>;
  struct Handle {
    std::shared_ptr<File> file;  // null for a directory handle
    uint64_t offset = 0;
    bool open = false;
  };

  Handle* Get(int fd);

  std::map<std::string, std::shared_ptr<File>> files_;
  std::vector<Handle> handles_;  // index = fd - kFirstFd
};

}  // namespace phbench

#endif  // PHBENCH_MEM_VFS_H_
