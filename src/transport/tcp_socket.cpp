#include "transport/tcp_socket.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <utility>

namespace tbr {

namespace {

[[noreturn]] void fail(const char* what) {
  throw TransportError(std::string(what) + ": " + std::strerror(errno));
}

}  // namespace

OwnedFd::~OwnedFd() { reset(); }

OwnedFd::OwnedFd(OwnedFd&& other) noexcept : fd_(other.fd_) {
  other.fd_ = -1;
}

OwnedFd& OwnedFd::operator=(OwnedFd&& other) noexcept {
  if (this != &other) {
    reset();
    fd_ = other.fd_;
    other.fd_ = -1;
  }
  return *this;
}

void OwnedFd::reset() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

namespace tcp {

std::pair<OwnedFd, std::uint16_t> listen_loopback(int backlog) {
  OwnedFd fd(::socket(AF_INET, SOCK_STREAM, 0));
  if (!fd.valid()) fail("socket");
  const int one = 1;
  if (::setsockopt(fd.get(), SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one)) !=
      0) {
    fail("setsockopt(SO_REUSEADDR)");
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = 0;  // ephemeral
  if (::bind(fd.get(), reinterpret_cast<const sockaddr*>(&addr),
             sizeof(addr)) != 0) {
    fail("bind");
  }
  if (::listen(fd.get(), backlog) != 0) fail("listen");
  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  if (::getsockname(fd.get(), reinterpret_cast<sockaddr*>(&bound), &len) !=
      0) {
    fail("getsockname");
  }
  return {std::move(fd), ntohs(bound.sin_port)};
}

OwnedFd connect_loopback(std::uint16_t port) {
  OwnedFd fd(::socket(AF_INET, SOCK_STREAM, 0));
  if (!fd.valid()) fail("socket");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  for (;;) {
    if (::connect(fd.get(), reinterpret_cast<const sockaddr*>(&addr),
                  sizeof(addr)) == 0) {
      return fd;
    }
    if (errno == EINTR) continue;
    fail("connect");
  }
}

OwnedFd accept_blocking(int listener_fd) {
  for (;;) {
    const int fd = ::accept(listener_fd, nullptr, nullptr);
    if (fd >= 0) return OwnedFd(fd);
    if (errno == EINTR) continue;
    fail("accept");
  }
}

void set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0 || ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0) {
    fail("fcntl(O_NONBLOCK)");
  }
}

void set_nodelay(int fd) {
  const int one = 1;
  if (::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one)) != 0) {
    fail("setsockopt(TCP_NODELAY)");
  }
}

void set_sndbuf(int fd, int bytes) {
  if (::setsockopt(fd, SOL_SOCKET, SO_SNDBUF, &bytes, sizeof(bytes)) != 0) {
    fail("setsockopt(SO_SNDBUF)");
  }
}

void set_rcvbuf(int fd, int bytes) {
  if (::setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &bytes, sizeof(bytes)) != 0) {
    fail("setsockopt(SO_RCVBUF)");
  }
}

IoResult read_some(int fd, std::string& buffer, std::size_t cap) {
  char chunk[kReadChunkBytes];
  const std::size_t want = std::min(cap, sizeof(chunk));
  for (;;) {
    const ssize_t got = ::read(fd, chunk, want);
    if (got > 0) {
      buffer.append(chunk, static_cast<std::size_t>(got));
      return {IoStatus::kOk, static_cast<std::size_t>(got)};
    }
    if (got == 0) return {IoStatus::kClosed, 0};
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      return {IoStatus::kWouldBlock, 0};
    }
    // ECONNRESET and friends: the peer process is gone (e.g. crashed on
    // purpose in a test); the channel is dead, not the environment.
    return {IoStatus::kClosed, 0};
  }
}

IoResult write_some(int fd, const char* data, std::size_t len) {
  for (;;) {
    const ssize_t put = ::send(fd, data, len, MSG_NOSIGNAL);
    if (put >= 0) return {IoStatus::kOk, static_cast<std::size_t>(put)};
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      return {IoStatus::kWouldBlock, 0};
    }
    return {IoStatus::kClosed, 0};
  }
}

void write_all_blocking(int fd, const char* data, std::size_t len) {
  std::size_t done = 0;
  while (done < len) {
    const ssize_t put = ::send(fd, data + done, len - done, MSG_NOSIGNAL);
    if (put < 0) {
      if (errno == EINTR) continue;
      fail("send (handshake)");
    }
    done += static_cast<std::size_t>(put);
  }
}

std::string read_exact_blocking(int fd, std::size_t len) {
  std::string out;
  out.reserve(len);
  while (out.size() < len) {
    char chunk[256];
    const ssize_t got =
        ::read(fd, chunk, std::min(sizeof(chunk), len - out.size()));
    if (got < 0) {
      if (errno == EINTR) continue;
      fail("read (handshake)");
    }
    if (got == 0) throw TransportError("peer closed during handshake");
    out.append(chunk, static_cast<std::size_t>(got));
  }
  return out;
}

std::pair<OwnedFd, OwnedFd> make_loopback_pair() {
  auto [listener, port] = listen_loopback(1);
  OwnedFd dialer = connect_loopback(port);
  OwnedFd accepted = accept_blocking(listener.get());
  return {std::move(dialer), std::move(accepted)};
}

std::pair<OwnedFd, OwnedFd> make_wakeup_pipe() {
  int fds[2];
  if (::pipe(fds) != 0) fail("pipe");
  OwnedFd rd(fds[0]), wr(fds[1]);
  set_nonblocking(rd.get());
  set_nonblocking(wr.get());
  return {std::move(rd), std::move(wr)};
}

void drain_pipe(int fd) {
  char sink[256];
  while (::read(fd, sink, sizeof(sink)) > 0) {
  }
}

}  // namespace tcp
}  // namespace tbr
