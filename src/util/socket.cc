#include "src/util/socket.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "src/util/fault_injection.h"
#include "src/util/string_util.h"

namespace ddr {

Socket& Socket::operator=(Socket&& other) noexcept {
  if (this != &other) {
    Close();
    fd_ = other.fd_;
    other.fd_ = -1;
  }
  return *this;
}

namespace {

Status SocketError(const char* what, int err) {
  return UnavailableError(StrPrintf("%s: %s", what, std::strerror(err)));
}

// socket(2) with CLOEXEC; a served fd leaking into a recorded child
// process would pin the connection past the client's lifetime.
Result<int> NewSocket(int domain) {
#if defined(SOCK_CLOEXEC)
  const int fd = ::socket(domain, SOCK_STREAM | SOCK_CLOEXEC, 0);
#else
  const int fd = ::socket(domain, SOCK_STREAM, 0);
#endif
  if (fd < 0) {
    return SocketError("socket", errno);
  }
  return fd;
}

Result<sockaddr_un> UnixAddress(const std::string& path) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.empty() || path.size() >= sizeof(addr.sun_path)) {
    return InvalidArgumentError(
        StrPrintf("unix socket path must be 1..%zu bytes: '%s'",
                  sizeof(addr.sun_path) - 1, path.c_str()));
  }
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  return addr;
}

}  // namespace

void Socket::Close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

Status Socket::SendAll(const uint8_t* data, size_t size) const {
  if (fd_ < 0) {
    return FailedPreconditionError("send on a closed socket");
  }
  size_t allow = size;
  Status injected = OkStatus();
  if (FaultsArmed()) {
    WriteFaultOutcome fault = FaultWritePoint("socket.send", size);
    allow = fault.allowed;
    injected = std::move(fault.failure);
  }
  size_t done = 0;
  while (done < allow) {
    if (FaultEintr("socket.send")) {
      continue;  // simulated interrupted send; the loop retries for real
    }
#if defined(MSG_NOSIGNAL)
    const ssize_t n = ::send(fd_, data + done, allow - done, MSG_NOSIGNAL);
#else
    const ssize_t n = ::send(fd_, data + done, allow - done, 0);
#endif
    if (n < 0) {
      if (errno == EINTR) {
        continue;
      }
      return SocketError("send", errno);
    }
    done += static_cast<size_t>(n);
  }
  return injected;
}

Result<bool> Socket::RecvExact(uint8_t* data, size_t size) const {
  if (fd_ < 0) {
    return FailedPreconditionError("recv on a closed socket");
  }
  RETURN_IF_ERROR(FaultPoint("socket.recv"));
  size_t done = 0;
  while (done < size) {
    if (FaultEintr("socket.recv")) {
      continue;  // simulated interrupted recv; the loop retries for real
    }
    const ssize_t n = ::recv(fd_, data + done, size - done, 0);
    if (n < 0) {
      if (errno == EINTR) {
        continue;
      }
      return SocketError("recv", errno);
    }
    if (n == 0) {
      if (done == 0) {
        return false;  // clean EOF on a message boundary
      }
      return UnavailableError(
          StrPrintf("connection closed mid-message (%zu of %zu bytes)", done,
                    size));
    }
    done += static_cast<size_t>(n);
  }
  return true;
}

Result<size_t> Socket::RecvSome(uint8_t* data, size_t size) const {
  if (fd_ < 0) {
    return FailedPreconditionError("recv on a closed socket");
  }
  RETURN_IF_ERROR(FaultPoint("socket.recv"));
  while (true) {
    if (FaultEintr("socket.recv")) {
      continue;  // simulated interrupted recv; the loop retries for real
    }
    const ssize_t n = ::recv(fd_, data, size, 0);
    if (n < 0) {
      if (errno == EINTR) {
        continue;
      }
      return SocketError("recv", errno);
    }
    return static_cast<size_t>(n);
  }
}

void Socket::ShutdownBoth() const {
  if (fd_ >= 0) {
    ::shutdown(fd_, SHUT_RDWR);
  }
}

Result<Socket> ListenUnix(const std::string& path, int backlog) {
  ASSIGN_OR_RETURN(sockaddr_un addr, UnixAddress(path));
  // Replace a stale socket file (a dead daemon's leftover); refuse to
  // clobber anything that is not a socket.
  struct stat st;
  if (::lstat(path.c_str(), &st) == 0) {
    if (!S_ISSOCK(st.st_mode)) {
      return FailedPreconditionError(
          "refusing to replace a non-socket file with a listener: " + path);
    }
    ::unlink(path.c_str());
  }
  ASSIGN_OR_RETURN(int fd, NewSocket(AF_UNIX));
  Socket listener(fd);
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0) {
    return SocketError(("bind(" + path + ")").c_str(), errno);
  }
  if (::listen(fd, backlog) != 0) {
    return SocketError(("listen(" + path + ")").c_str(), errno);
  }
  return listener;
}

Result<Socket> ListenTcp(uint16_t port, int backlog) {
  ASSIGN_OR_RETURN(int fd, NewSocket(AF_INET));
  Socket listener(fd);
  // Daemon restarts must not wait out TIME_WAIT on the fixed port.
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0) {
    return SocketError(StrPrintf("bind(127.0.0.1:%u)", port).c_str(), errno);
  }
  if (::listen(fd, backlog) != 0) {
    return SocketError("listen", errno);
  }
  return listener;
}

Result<uint16_t> LocalPort(const Socket& listener) {
  sockaddr_in addr{};
  socklen_t len = sizeof(addr);
  if (::getsockname(listener.fd(), reinterpret_cast<sockaddr*>(&addr), &len) !=
      0) {
    return SocketError("getsockname", errno);
  }
  return static_cast<uint16_t>(ntohs(addr.sin_port));
}

Result<Socket> AcceptConnection(const Socket& listener) {
  int fd = -1;
  do {
    fd = ::accept(listener.fd(), nullptr, nullptr);
  } while (fd < 0 && errno == EINTR);
  if (fd < 0) {
    return SocketError("accept", errno);
  }
#if defined(FD_CLOEXEC)
  ::fcntl(fd, F_SETFD, FD_CLOEXEC);
#endif
  return Socket(fd);
}

Result<Socket> ConnectUnix(const std::string& path) {
  RETURN_IF_ERROR(FaultPoint("socket.connect"));
  ASSIGN_OR_RETURN(sockaddr_un addr, UnixAddress(path));
  ASSIGN_OR_RETURN(int fd, NewSocket(AF_UNIX));
  Socket socket(fd);
  int rc = 0;
  do {
    rc = ::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr));
  } while (rc != 0 && errno == EINTR);
  if (rc != 0) {
    if (errno == ENOENT || errno == ECONNREFUSED) {
      return NotFoundError("no corpus server listening at " + path);
    }
    return SocketError(("connect(" + path + ")").c_str(), errno);
  }
  return socket;
}

Result<Socket> ConnectTcp(const std::string& host, uint16_t port) {
  RETURN_IF_ERROR(FaultPoint("socket.connect"));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    return InvalidArgumentError("host must be a numeric IPv4 address: '" +
                                host + "'");
  }
  ASSIGN_OR_RETURN(int fd, NewSocket(AF_INET));
  Socket socket(fd);
  int rc = 0;
  do {
    rc = ::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr));
  } while (rc != 0 && errno == EINTR);
  if (rc != 0) {
    if (errno == ECONNREFUSED) {
      return NotFoundError(
          StrPrintf("no corpus server listening at %s:%u", host.c_str(), port));
    }
    return SocketError(StrPrintf("connect(%s:%u)", host.c_str(), port).c_str(),
                       errno);
  }
  return socket;
}

Result<bool> WaitReadable(const Socket& socket, int timeout_ms) {
  struct pollfd pfd;
  pfd.fd = socket.fd();
  pfd.events = POLLIN;
  pfd.revents = 0;
  const int rc = ::poll(&pfd, 1, timeout_ms);
  if (rc < 0) {
    if (errno == EINTR) {
      return false;  // let the caller re-check its stop flag
    }
    return SocketError("poll", errno);
  }
  return rc > 0;
}

}  // namespace ddr
