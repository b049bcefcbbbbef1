// Line-framed connection transports.
//
// The daemon speaks a line-delimited protocol (net/protocol.hpp) over
// an abstract Connection. Connections are batch-native: read_lines
// takes every complete '\n'-terminated line already received, and
// either blocks until there is at least one (wait) or returns at once,
// possibly with none (no wait: a reader that holds other work checks
// for input without sleeping); write_lines sends a batch in order with
// one queue push (in-process) or one send (TCP). Each transport
// implements exactly that pair; read_line/write_line are non-virtual
// adapters on the base (serving lines one at a time from a private
// batch) for clients that talk one line at a time. Two transports:
//
//   SocketConnection — line framing over a TcpStream (the wire
//                      front-end): the complete lines already
//                      buffered, else one recv (MSG_DONTWAIT when not
//                      waiting) and every complete line it completes;
//   LocalConnection  — a pair of in-process bounded queues, so tests
//                      and benches drive the daemon with zero sockets
//                      and zero syscalls (the csp-channel idiom); a
//                      read is one BatchQueue::pop_all.
//
// Matching Listener implementations let Netmasterd::serve() accept
// from either world through one interface. All blocking calls return
// cleanly (read_lines -> false) when the peer closes, so serve loops
// need no special shutdown signalling beyond closing connections.
// A socket peer that sends more than kMaxLineBytes without a newline
// gets LineTooLong instead of an ever-growing buffer; the complete
// lines before it are still delivered first.
//
// A line crosses threads in-process through a LineQueue, the shared
// BatchQueue (common/batch_queue.hpp, which states its wake
// discipline): lines move in batches, and a thread is woken only when
// it has something to do.
//
// The adapter's private batch makes each Connection a one-reader
// endpoint: one thread at a time reads, and a reader uses either
// read_line or read_lines, not both (any thread may write or close).
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "common/batch_queue.hpp"
#include "common/error.hpp"
#include "net/socket.hpp"

namespace netmaster::net {

/// A batch of lines, without their '\n's, in arrival order.
using LineBatch = std::vector<std::string>;

/// Thrown by SocketConnection::read_lines when the peer sends more than
/// kMaxLineBytes (net/protocol.hpp) without a '\n'. The buffered bytes
/// are discarded; the conversation cannot resynchronize, so the caller
/// replies with an error and closes the connection.
class LineTooLong : public Error {
 public:
  LineTooLong() : Error("line too long") {}
};

/// One bidirectional line-framed conversation.
class Connection {
 public:
  virtual ~Connection() = default;

  /// Replaces `lines` with every complete line already received
  /// (without the trailing '\n's). With `wait`, blocks until there is
  /// at least one; without, returns true at once, `lines` possibly
  /// empty. Returns false, with `lines` empty, on orderly peer close /
  /// transport shutdown. Throws LineTooLong on an oversize line from
  /// an untrusted peer.
  virtual bool read_lines(LineBatch& lines, bool wait) = 0;

  /// Sends a batch of lines in order ('\n' appended to each).
  virtual void write_lines(std::span<const std::string> lines) = 0;

  /// Closes both directions; pending and future reads return false.
  virtual void close() = 0;

  /// One line at a time over read_lines: blocks for the next line.
  /// Returns false on close; throws what read_lines throws.
  bool read_line(std::string& line);

  /// Sends one line: a batch of one.
  void write_line(const std::string& line) { write_lines({&line, 1}); }

 private:
  LineBatch batch_;       ///< taken by read_line, not yet returned
  std::size_t next_ = 0;  ///< read_line's position in batch_
};

/// Accept source for Netmasterd::serve().
class Listener {
 public:
  virtual ~Listener() = default;

  /// Blocks for the next connection; nullptr when the listener was
  /// closed (serve loops exit then).
  virtual std::unique_ptr<Connection> accept() = 0;

  virtual void close() = 0;
};

/// Line framing over a TCP stream.
class SocketConnection final : public Connection {
 public:
  explicit SocketConnection(TcpStream stream)
      : stream_(std::move(stream)) {}

  bool read_lines(LineBatch& lines, bool wait) override;
  void write_lines(std::span<const std::string> lines) override;
  /// Shuts the socket down (a thread blocked in read_lines wakes and
  /// returns false) but defers releasing the descriptor to the
  /// destructor — by then no thread can still be inside recv on it,
  /// so the kernel cannot hand the number to a new socket underneath
  /// a blocked reader. This makes close() safe from any thread.
  void close() override { stream_.shutdown(); }

 private:
  TcpStream stream_;
  std::string buffer_;  ///< bytes received but not yet consumed
};

/// Listener over a bound TCP socket.
class SocketListener final : public Listener {
 public:
  /// Port 0 binds an ephemeral port (see port()).
  explicit SocketListener(std::uint16_t port) : listener_(port) {}

  std::uint16_t port() const { return listener_.port(); }

  std::unique_ptr<Connection> accept() override;
  void close() override { listener_.close(); }

 private:
  TcpListener listener_;
};

/// One direction of an in-process connection: a bounded line queue.
using LineQueue = BatchQueue<std::string>;

/// In-process connection endpoint: reads from one queue, writes the
/// other. Created in pairs by LocalListener::connect(). One thread at
/// a time may read (see above).
class LocalConnection final : public Connection {
 public:
  LocalConnection(std::shared_ptr<LineQueue> in,
                  std::shared_ptr<LineQueue> out)
      : in_(std::move(in)), out_(std::move(out)) {}

  bool read_lines(LineBatch& lines, bool wait) override {
    lines.clear();
    return in_->pop_all(lines, wait);
  }
  void write_lines(std::span<const std::string> lines) override {
    out_->put(lines.size(), [&](std::size_t i) { return lines[i]; });
  }
  void close() override {
    in_->close();
    out_->close();
  }

 private:
  std::shared_ptr<LineQueue> in_;
  std::shared_ptr<LineQueue> out_;
};

/// In-process accept source. A client calls connect() and gets its end
/// of a fresh connection; the serving side's accept() returns the
/// other end.
class LocalListener final : public Listener {
 public:
  /// Client side: creates a connection pair and queues the server end
  /// for accept(). Throws when the listener is closed.
  std::unique_ptr<Connection> connect();

  std::unique_ptr<Connection> accept() override;
  void close() override;

 private:
  std::mutex mutex_;
  std::condition_variable cv_;
  std::deque<std::unique_ptr<Connection>> pending_;
  bool closed_ = false;
};

}  // namespace netmaster::net
