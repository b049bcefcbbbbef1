#include "net/socket.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <thread>

#include "common/error.hpp"

namespace netmaster::net {

namespace {

[[noreturn]] void raise_errno(const char* what) {
  throw Error(std::string("net: ") + what + ": " +
              std::strerror(errno));
}

}  // namespace

TcpStream& TcpStream::operator=(TcpStream&& other) noexcept {
  if (this != &other) {
    close();
    fd_.store(other.fd_.exchange(-1));
  }
  return *this;
}

TcpStream TcpStream::connect(const std::string& host,
                             std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) raise_errno("socket");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    throw Error("net: bad IPv4 address '" + host + "'");
  }
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    ::close(fd);
    raise_errno("connect");
  }
  // The protocol is small request/response lines; latency beats
  // batching.
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return TcpStream(fd);
}

void TcpStream::send_all(const char* data, std::size_t len) {
  const int fd = fd_.load(std::memory_order_relaxed);
  NM_REQUIRE(fd >= 0, "send on a closed stream");
  std::size_t sent = 0;
  while (sent < len) {
    const ssize_t n =
        ::send(fd, data + sent, len - sent, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      raise_errno("send");
    }
    sent += static_cast<std::size_t>(n);
  }
}

std::size_t TcpStream::recv_some(char* data, std::size_t len) {
  return *recv_with(data, len, 0);
}

std::optional<std::size_t> TcpStream::try_recv_some(char* data,
                                                    std::size_t len) {
  return recv_with(data, len, MSG_DONTWAIT);
}

std::optional<std::size_t> TcpStream::recv_with(char* data, std::size_t len,
                                                int flags) {
  const int fd = fd_.load(std::memory_order_relaxed);
  NM_REQUIRE(fd >= 0, "recv on a closed stream");
  while (true) {
    const ssize_t n = ::recv(fd, data, len, flags);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) return std::nullopt;
      // A peer that vanished mid-conversation reads as EOF, not a
      // daemon-side failure.
      if (errno == ECONNRESET) return 0;
      raise_errno("recv");
    }
    return static_cast<std::size_t>(n);
  }
}

void TcpStream::shutdown() noexcept {
  const int fd = fd_.load(std::memory_order_relaxed);
  if (fd >= 0) ::shutdown(fd, SHUT_RDWR);
}

void TcpStream::close() {
  const int fd = fd_.exchange(-1);
  if (fd >= 0) {
    // shutdown() first so a thread racing into recv/send on the old
    // descriptor observes EOF rather than hanging (mirrors
    // TcpListener::close()).
    ::shutdown(fd, SHUT_RDWR);
    ::close(fd);
  }
}

TcpListener::TcpListener(std::uint16_t port) {
  fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd_ < 0) raise_errno("socket");
  const int one = 1;
  ::setsockopt(fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::bind(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    ::close(fd_.exchange(-1));
    raise_errno("bind");
  }
  if (::listen(fd_, 64) != 0) {
    ::close(fd_.exchange(-1));
    raise_errno("listen");
  }
  socklen_t len = sizeof(addr);
  if (::getsockname(fd_, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
    raise_errno("getsockname");
  }
  port_ = ntohs(addr.sin_port);
}

TcpStream TcpListener::accept() {
  while (true) {
    const int lfd = fd_.load(std::memory_order_relaxed);
    if (lfd < 0) return TcpStream();  // closed — orderly shutdown
    const int fd = ::accept(lfd, nullptr, nullptr);
    if (fd >= 0) {
      const int one = 1;
      ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
      return TcpStream(fd);
    }
    switch (errno) {
      case EINTR:
      case ECONNABORTED:  // peer gave up between SYN and accept
        continue;
      case EMFILE:
      case ENFILE:
      case ENOBUFS:
      case ENOMEM:
        // Resource exhaustion is transient under load; back off
        // instead of permanently abandoning the accept loop.
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
        continue;
      case EBADF:
      case EINVAL:
        // close() from another thread invalidated the descriptor —
        // orderly shutdown.
        return TcpStream();
      default:
        raise_errno("accept");
    }
  }
}

void TcpListener::close() {
  const int fd = fd_.exchange(-1);
  if (fd >= 0) {
    // shutdown() first so a thread blocked in accept() wakes up.
    ::shutdown(fd, SHUT_RDWR);
    ::close(fd);
  }
}

}  // namespace netmaster::net
