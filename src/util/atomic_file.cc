#include "util/atomic_file.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>

#include "util/failpoint.h"
#include "util/strings.h"

namespace procmine {

namespace {

// Writes all of `data`, retrying on EINTR and continuing after short
// writes. Honors the atomic_write.write failpoint (kShortIO truncates the
// attempted chunk, kEintr simulates an interrupted syscall, kError/kAlloc
// abort).
Status WriteAll(int fd, std::string_view data, const std::string& path) {
  size_t written = 0;
  while (written < data.size()) {
    size_t chunk = data.size() - written;
    if (auto fp = PROCMINE_FAILPOINT("atomic_write.write"); fp) {
      switch (fp.action) {
        case failpoint::Action::kShortIO:
          chunk = std::min<size_t>(
              chunk, fp.arg > 0 ? static_cast<size_t>(fp.arg) : 1);
          break;
        case failpoint::Action::kEintr:
          errno = EINTR;
          continue;  // a real EINTR write() wrote nothing; retry
        default:
          return fp.ToStatus("atomic_write.write");
      }
    }
    ssize_t n = ::write(fd, data.data() + written, chunk);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::IOError(StrFormat("write %s: %s", path.c_str(),
                                       std::strerror(errno)));
    }
    written += static_cast<size_t>(n);
  }
  return Status::OK();
}

}  // namespace

Status WriteFileAtomic(const std::string& path, std::string_view content) {
  const std::string tmp = path + ".tmp";

  int fd = -1;
  if (auto fp = PROCMINE_FAILPOINT("atomic_write.open"); fp) {
    return fp.ToStatus("atomic_write.open");
  }
  do {
    fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  } while (fd < 0 && errno == EINTR);
  if (fd < 0) {
    return Status::IOError(
        StrFormat("open %s: %s", tmp.c_str(), std::strerror(errno)));
  }

  Status status = WriteAll(fd, content, tmp);

  if (status.ok()) {
    if (auto fp = PROCMINE_FAILPOINT("atomic_write.fsync"); fp) {
      status = fp.ToStatus("atomic_write.fsync");
    } else if (::fsync(fd) != 0) {
      status = Status::IOError(
          StrFormat("fsync %s: %s", tmp.c_str(), std::strerror(errno)));
    }
  }

  int close_rc;
  do {
    close_rc = ::close(fd);
  } while (close_rc != 0 && errno == EINTR);
  if (status.ok() && close_rc != 0) {
    status = Status::IOError(
        StrFormat("close %s: %s", tmp.c_str(), std::strerror(errno)));
  }

  if (status.ok()) {
    if (auto fp = PROCMINE_FAILPOINT("atomic_write.rename"); fp) {
      status = fp.ToStatus("atomic_write.rename");
    } else if (std::rename(tmp.c_str(), path.c_str()) != 0) {
      status = Status::IOError(StrFormat("rename %s -> %s: %s", tmp.c_str(),
                                         path.c_str(), std::strerror(errno)));
    }
  }

  if (!status.ok()) ::unlink(tmp.c_str());
  return status;
}

Status MakeDirs(const std::string& dir, std::string_view what) {
  if (dir.empty()) {
    return Status::InvalidArgument(
        StrFormat("empty %.*s directory", static_cast<int>(what.size()),
                  what.data()));
  }
  std::string partial;
  size_t pos = 0;
  while (pos <= dir.size()) {
    size_t slash = dir.find('/', pos);
    if (slash == std::string::npos) slash = dir.size();
    partial.assign(dir, 0, slash);
    pos = slash + 1;
    if (partial.empty()) continue;  // leading '/'
    if (::mkdir(partial.c_str(), 0755) != 0 && errno != EEXIST) {
      return Status::IOError(StrFormat("mkdir %s: %s", partial.c_str(),
                                       std::strerror(errno)));
    }
  }
  struct stat st;
  if (::stat(dir.c_str(), &st) != 0 || !S_ISDIR(st.st_mode)) {
    return Status::IOError(StrFormat("%.*s path %s is not a directory",
                                     static_cast<int>(what.size()),
                                     what.data(), dir.c_str()));
  }
  return Status::OK();
}

}  // namespace procmine
