#include "net/transport.hpp"

#include <optional>

#include "common/error.hpp"
#include "net/protocol.hpp"

namespace netmaster::net {

bool Connection::read_line(std::string& line) {
  if (next_ == batch_.size()) {
    next_ = 0;
    if (!read_lines(batch_, true)) return false;
  }
  line = std::move(batch_[next_++]);
  return true;
}

bool SocketConnection::read_lines(LineBatch& lines, bool wait) {
  lines.clear();
  bool received = false;  // without wait: at most one recv
  while (true) {
    // Split every complete line out of the buffer, stopping at the
    // first one (or the unterminated tail) longer than the limit.
    std::size_t pos = 0;
    bool too_long = false;
    while (true) {
      const std::size_t nl = buffer_.find('\n', pos);
      const std::size_t end = nl == std::string::npos ? buffer_.size() : nl;
      if (end - pos > kMaxLineBytes) {
        too_long = true;
        break;
      }
      if (nl == std::string::npos) break;
      std::string& line = lines.emplace_back(buffer_, pos, nl - pos);
      if (!line.empty() && line.back() == '\r') line.pop_back();
      pos = nl + 1;
    }
    buffer_.erase(0, pos);
    // The lines before an oversize one are delivered first; the next
    // call finds it at the front and throws.
    if (!lines.empty()) return true;
    if (too_long) {
      // Bounded: the buffer never holds more than the limit plus one
      // receive chunk.
      buffer_.clear();
      throw LineTooLong();
    }
    if (!stream_.valid()) return false;
    if (received) return true;
    char chunk[4096];
    std::size_t n = 0;
    if (wait) {
      n = stream_.recv_some(chunk, sizeof(chunk));
    } else {
      const std::optional<std::size_t> got =
          stream_.try_recv_some(chunk, sizeof(chunk));
      if (!got) return true;  // nothing yet
      n = *got;
      received = true;
    }
    if (n == 0) {
      // Orderly close; a trailing unterminated fragment is dropped —
      // the protocol is strictly line-framed.
      return false;
    }
    buffer_.append(chunk, n);
  }
}

void SocketConnection::write_lines(std::span<const std::string> lines) {
  std::string framed;
  for (const std::string& line : lines) {
    framed += line;
    framed.push_back('\n');
  }
  stream_.send_all(framed.data(), framed.size());
}

std::unique_ptr<Connection> SocketListener::accept() {
  TcpStream stream = listener_.accept();
  if (!stream.valid()) return nullptr;
  return std::make_unique<SocketConnection>(std::move(stream));
}

std::unique_ptr<Connection> LocalListener::connect() {
  constexpr std::size_t kLinesPerDirection = 1024;
  auto to_server = std::make_shared<LineQueue>(kLinesPerDirection);
  auto to_client = std::make_shared<LineQueue>(kLinesPerDirection);
  auto client =
      std::make_unique<LocalConnection>(to_client, to_server);
  auto server =
      std::make_unique<LocalConnection>(to_server, to_client);
  {
    std::lock_guard<std::mutex> lock(mutex_);
    NM_REQUIRE(!closed_, "connect on a closed LocalListener");
    pending_.push_back(std::move(server));
  }
  cv_.notify_all();
  return client;
}

std::unique_ptr<Connection> LocalListener::accept() {
  std::unique_lock<std::mutex> lock(mutex_);
  cv_.wait(lock, [&] { return closed_ || !pending_.empty(); });
  if (pending_.empty()) return nullptr;
  auto conn = std::move(pending_.front());
  pending_.pop_front();
  return conn;
}

void LocalListener::close() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    closed_ = true;
  }
  cv_.notify_all();
}

}  // namespace netmaster::net
