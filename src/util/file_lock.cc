#include "src/util/file_lock.h"

#include <fcntl.h>
#include <sys/file.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "src/util/string_util.h"

namespace ddr {

namespace {

// flock with EINTR retry; returns 0 or -1 with errno set (never EINTR).
int FlockRetry(int fd, int operation) {
  int rc = 0;
  do {
    rc = ::flock(fd, operation);
  } while (rc != 0 && errno == EINTR);
  return rc;
}

}  // namespace

Status TryFlockExclusive(int fd, const std::string& path) {
  if (FlockRetry(fd, LOCK_EX | LOCK_NB) != 0) {
    if (errno == EWOULDBLOCK) {
      return UnavailableError(
          "another in-place append holds the corpus writer lock: " + path);
    }
    return UnavailableError(StrPrintf("flock(%s): %s", path.c_str(),
                                      std::strerror(errno)));
  }
  return OkStatus();
}

Result<bool> FileExclusivelyLocked(const std::string& path) {
  int fd = -1;
  do {
    fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  } while (fd < 0 && errno == EINTR);
  if (fd < 0) {
    if (errno == ENOENT) {
      return NotFoundError("cannot probe writer lock: " + path);
    }
    return UnavailableError(StrPrintf("cannot open %s for lock probe: %s",
                                      path.c_str(), std::strerror(errno)));
  }
  const int rc = FlockRetry(fd, LOCK_SH | LOCK_NB);
  const int err = errno;
  // Closing drops the shared lock if we took it; the probe never holds
  // anything past this line.
  ::close(fd);
  if (rc == 0) {
    return false;
  }
  if (err == EWOULDBLOCK) {
    return true;
  }
  return UnavailableError(StrPrintf("flock probe(%s): %s", path.c_str(),
                                    std::strerror(err)));
}

}  // namespace ddr
