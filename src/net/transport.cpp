#include "net/transport.hpp"

#include "common/error.hpp"
#include "net/protocol.hpp"

namespace netmaster::net {

bool SocketConnection::read_line(std::string& line) {
  while (true) {
    const auto nl = buffer_.find('\n');
    if (nl != std::string::npos && nl <= kMaxLineBytes) {
      line.assign(buffer_, 0, nl);
      buffer_.erase(0, nl + 1);
      if (!line.empty() && line.back() == '\r') line.pop_back();
      return true;
    }
    if (nl != std::string::npos || buffer_.size() > kMaxLineBytes) {
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

void SocketConnection::write_line(const std::string& line) {
  std::string framed = line;
  framed.push_back('\n');
  stream_.send_all(framed.data(), framed.size());
}

std::unique_ptr<Connection> SocketListener::accept() {
  TcpStream stream = listener_.accept();
  if (!stream.valid()) return nullptr;
  return std::make_unique<SocketConnection>(std::move(stream));
}

bool LineQueue::push(const std::string& line) {
  bool was_empty = false;
  {
    std::unique_lock<std::mutex> lock(mutex_);
    not_full_.wait(lock, [&] { return closed_ || lines_.size() < capacity_; });
    if (closed_) return false;
    was_empty = lines_.empty();
    lines_.push_back(line);
  }
  // A consumer sleeps only on an empty queue, so only the first line
  // of a burst needs to wake it.
  if (was_empty) not_empty_.notify_one();
  return true;
}

bool LineQueue::pop_all(std::deque<std::string>& out) {
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

bool LocalConnection::read_line(std::string& line) {
  if (batch_.empty() && !in_->pop_all(batch_)) return false;
  line = std::move(batch_.front());
  batch_.pop_front();
  return true;
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
