// Small portable socket layer (POSIX TCP) for the netmasterd wire
// front-end.
//
// RAII wrappers around loopback/TCP stream sockets: a TcpListener
// binds (port 0 picks an ephemeral port — tests and the bench use
// this), accept() yields connected TcpStreams, and TcpStream moves
// bytes. Line framing lives one layer up (net/transport.hpp); this
// file is only file descriptors and syscalls, so everything above it
// can also run over the in-process transport with no socket at all.
//
// Errors are netmaster::Error with errno context; EOF is a value
// (recv returning 0), not an error.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>

namespace netmaster::net {

/// A connected TCP byte stream. Move-only; closes on destruction.
///
/// Cross-thread teardown contract: shutdown() may be called from any
/// thread to wake a peer blocked in recv_some/send_all (they observe
/// EOF / a send error); close() releases the descriptor and must only
/// be called once no other thread can still be inside a syscall on it
/// — otherwise the kernel may hand the freed descriptor number to a
/// new socket under the blocked thread. Threads sharing a stream shut
/// down first and let the owning thread (or the destructor) close.
class TcpStream {
 public:
  TcpStream() = default;
  /// Adopts an already-connected descriptor (listener side).
  explicit TcpStream(int fd) : fd_(fd) {}
  ~TcpStream() { close(); }

  TcpStream(TcpStream&& other) noexcept
      : fd_(other.fd_.exchange(-1)) {}
  TcpStream& operator=(TcpStream&& other) noexcept;
  TcpStream(const TcpStream&) = delete;
  TcpStream& operator=(const TcpStream&) = delete;

  /// Connects to host:port (numeric IPv4 host, e.g. "127.0.0.1").
  static TcpStream connect(const std::string& host, std::uint16_t port);

  bool valid() const {
    return fd_.load(std::memory_order_relaxed) >= 0;
  }

  /// Writes the whole buffer (loops over partial sends). Throws on a
  /// closed/failed peer.
  void send_all(const char* data, std::size_t len);

  /// Reads at most `len` bytes; returns 0 on orderly peer shutdown.
  std::size_t recv_some(char* data, std::size_t len);

  /// recv_some without blocking: nullopt when no byte has arrived yet.
  std::optional<std::size_t> try_recv_some(char* data, std::size_t len);

  /// Half-closes both directions without releasing the descriptor: a
  /// thread blocked in recv_some() wakes with EOF. Safe to call
  /// concurrently with recv_some/send_all on another thread.
  void shutdown() noexcept;

  /// Shuts down, then releases the descriptor. Not safe while another
  /// thread is blocked on the stream — use shutdown() for that.
  void close();

 private:
  /// One recv with `flags`; nullopt when it would block.
  std::optional<std::size_t> recv_with(char* data, std::size_t len,
                                       int flags);

  std::atomic<int> fd_{-1};
};

/// A listening TCP socket bound to 127.0.0.1.
class TcpListener {
 public:
  /// Binds and listens; `port` 0 picks an ephemeral port (read it back
  /// with port()).
  explicit TcpListener(std::uint16_t port);
  ~TcpListener() { close(); }

  TcpListener(const TcpListener&) = delete;
  TcpListener& operator=(const TcpListener&) = delete;

  /// The actually-bound port.
  std::uint16_t port() const { return port_; }

  /// Blocks for the next connection. Transient accept failures
  /// (aborted handshakes, descriptor exhaustion) retry — with a short
  /// backoff for the resource-exhaustion ones — so a loaded daemon
  /// never silently stops accepting. Returns an invalid stream only
  /// when the listener was closed from another thread (orderly
  /// shutdown).
  TcpStream accept();

  void close();

 private:
  std::atomic<int> fd_{-1};
  std::uint16_t port_ = 0;
};

}  // namespace netmaster::net
