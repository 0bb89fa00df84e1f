#include "mem_vfs.h"

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <fcntl.h>
#include <unistd.h>

namespace phbench {
namespace {

// Descriptors start well above anything the process has open, so a stray
// descriptor handed to the wrong layer fails loudly instead of aliasing.
constexpr int kFirstFd = 1 << 20;

}  // namespace

MemVfs::Handle* MemVfs::Get(int fd) {
  const int index = fd - kFirstFd;
  if (index < 0 || static_cast<size_t>(index) >= handles_.size() ||
      !handles_[index].open) {
    errno = EBADF;
    return nullptr;
  }
  return &handles_[index];
}

int MemVfs::Open(const char* path, int flags, mode_t /*mode*/) {
  Handle h;
  h.open = true;
  if ((flags & O_DIRECTORY) == 0) {
    auto it = files_.find(path);
    if (it == files_.end()) {
      if ((flags & O_CREAT) == 0) {
        errno = ENOENT;
        return -1;
      }
      it = files_.emplace(path, std::make_shared<File>()).first;
    } else if ((flags & O_TRUNC) != 0) {
      it->second->clear();
    }
    h.file = it->second;
  }
  for (size_t i = 0; i < handles_.size(); ++i) {
    if (!handles_[i].open) {
      handles_[i] = std::move(h);
      return kFirstFd + static_cast<int>(i);
    }
  }
  handles_.push_back(std::move(h));
  return kFirstFd + static_cast<int>(handles_.size() - 1);
}

ssize_t MemVfs::Read(int fd, void* buf, size_t n) {
  Handle* h = Get(fd);
  if (h == nullptr || h->file == nullptr) {
    errno = h == nullptr ? EBADF : EISDIR;
    return -1;
  }
  const File& f = *h->file;
  if (h->offset >= f.size()) {
    return 0;
  }
  const size_t take = std::min<size_t>(n, f.size() - h->offset);
  std::memcpy(buf, f.data() + h->offset, take);
  h->offset += take;
  return static_cast<ssize_t>(take);
}

ssize_t MemVfs::Write(int fd, const void* buf, size_t n) {
  Handle* h = Get(fd);
  if (h == nullptr || h->file == nullptr) {
    errno = h == nullptr ? EBADF : EISDIR;
    return -1;
  }
  File& f = *h->file;
  if (f.size() < h->offset + n) {
    f.resize(h->offset + n);
  }
  std::memcpy(f.data() + h->offset, buf, n);
  h->offset += n;
  return static_cast<ssize_t>(n);
}

int MemVfs::Fsync(int fd) { return Get(fd) == nullptr ? -1 : 0; }

int MemVfs::Close(int fd) {
  Handle* h = Get(fd);
  if (h == nullptr) {
    return -1;
  }
  *h = Handle();
  return 0;
}

int MemVfs::Rename(const char* from, const char* to) {
  auto it = files_.find(from);
  if (it == files_.end()) {
    errno = ENOENT;
    return -1;
  }
  std::shared_ptr<File> file = it->second;
  files_.erase(it);
  files_[to] = std::move(file);
  return 0;
}

int MemVfs::Unlink(const char* path) {
  if (files_.erase(path) == 0) {
    errno = ENOENT;
    return -1;
  }
  return 0;
}

off_t MemVfs::Seek(int fd, off_t offset, int whence) {
  Handle* h = Get(fd);
  if (h == nullptr || h->file == nullptr) {
    errno = h == nullptr ? EBADF : EISDIR;
    return -1;
  }
  off_t base = 0;
  if (whence == SEEK_CUR) {
    base = static_cast<off_t>(h->offset);
  } else if (whence == SEEK_END) {
    base = static_cast<off_t>(h->file->size());
  } else if (whence != SEEK_SET) {
    errno = EINVAL;
    return -1;
  }
  if (base + offset < 0) {
    errno = EINVAL;
    return -1;
  }
  h->offset = static_cast<uint64_t>(base + offset);
  return static_cast<off_t>(h->offset);
}

int MemVfs::Stat(int fd, uint64_t* size, bool* is_dir) {
  Handle* h = Get(fd);
  if (h == nullptr) {
    return -1;
  }
  *is_dir = h->file == nullptr;
  *size = h->file == nullptr ? 0 : h->file->size();
  return 0;
}

uint64_t MemVfs::FileSize(const std::string& path) const {
  const auto it = files_.find(path);
  return it == files_.end() ? 0 : it->second->size();
}

}  // namespace phbench
