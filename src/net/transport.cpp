#include "net/transport.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "net/protocol.hpp"

namespace netmaster::net {

bool Connection::read_line(std::string& line) {
  if (next_ == batch_.size()) {
    next_ = 0;
    if (!read_lines(batch_)) return false;
  }
  line = std::move(batch_[next_++]);
  return true;
}

bool SocketConnection::read_lines(LineBatch& lines) {
  lines.clear();
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
    char chunk[4096];
    const std::size_t n = stream_.recv_some(chunk, sizeof(chunk));
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

bool LineQueue::push_all(std::span<const std::string> lines) {
  std::size_t sent = 0;
  while (sent < lines.size()) {
    bool was_empty = false;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      not_full_.wait(lock,
                     [&] { return closed_ || lines_.size() < capacity_; });
      if (closed_) return false;
      was_empty = lines_.empty();
      const std::size_t n =
          std::min(lines.size() - sent, capacity_ - lines_.size());
      lines_.insert(lines_.end(), lines.begin() + sent,
                    lines.begin() + sent + n);
      sent += n;
    }
    // A consumer sleeps only on an empty queue, so only the chunk that
    // ends the emptiness needs to wake it.
    if (was_empty) not_empty_.notify_one();
  }
  return true;
}

bool LineQueue::pop_all(LineBatch& out) {
  NM_REQUIRE(out.empty(), "pop_all needs an empty batch");
  bool was_full = false;
  {
    std::unique_lock<std::mutex> lock(mutex_);
    not_empty_.wait(lock, [&] { return closed_ || !lines_.empty(); });
    if (lines_.empty()) return false;  // closed and drained
    was_full = lines_.size() >= capacity_;
    out.swap(lines_);
  }
  // Producers sleep only on a full queue; the swap freed all of it.
  if (was_full) not_full_.notify_all();
  return true;
}

void LineQueue::close() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    closed_ = true;
  }
  not_empty_.notify_all();
  not_full_.notify_all();
}

std::unique_ptr<Connection> LocalListener::connect() {
  auto to_server = std::make_shared<LineQueue>();
  auto to_client = std::make_shared<LineQueue>();
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
