// Tests for the portable networking layer (src/net/): line transports (in-process and TCP loopback), and the netmasterd
// wire protocol.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <limits>
#include <memory>
#include <random>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "net/protocol.hpp"
#include "net/socket.hpp"
#include "net/transport.hpp"

namespace netmaster::net {
namespace {

// ---- In-process transport. -------------------------------------------

/// Appends `lines` in order; false when the queue closed first.
bool push_all(LineQueue& q, std::span<const std::string> lines) {
  return q.put(lines.size(), [&](std::size_t i) { return lines[i]; }) ==
         lines.size();
}

/// One line into the queue: a batch of one.
bool push_one(LineQueue& q, const std::string& line) {
  return push_all(q, {&line, 1});
}

TEST(NetTransport, LineQueuePushPopAndClose) {
  LineQueue q(2);
  EXPECT_TRUE(push_one(q, "a"));
  EXPECT_TRUE(push_one(q, "b"));
  LineBatch batch;
  EXPECT_TRUE(q.pop_all(batch));
  EXPECT_EQ(batch, (LineBatch{"a", "b"}));
  // The take needs an empty batch: leftovers would be swapped back in.
  EXPECT_TRUE(push_one(q, "c"));
  EXPECT_THROW(q.pop_all(batch), Error);
  batch.clear();
  q.close();
  // Closed but not drained: the remaining line is still delivered.
  EXPECT_TRUE(q.pop_all(batch));
  EXPECT_EQ(batch, LineBatch{"c"});
  batch.clear();
  EXPECT_FALSE(q.pop_all(batch));
  EXPECT_FALSE(push_one(q, "d"));
}

TEST(NetTransport, LineQueueBlocksWhenFullUntilPopped) {
  // A capacity of 0 acts as 1: the first line goes in, the second waits.
  for (const std::size_t capacity : {0, 1}) {
    LineQueue q(capacity);
    ASSERT_TRUE(push_one(q, "first"));
    std::atomic<bool> pushed{false};
    std::thread producer([&] {
      push_one(q, "second");  // must block until the consumer takes
      pushed.store(true);
    });
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    EXPECT_FALSE(pushed.load()) << "capacity " << capacity;
    LineBatch batch;
    EXPECT_TRUE(q.pop_all(batch));
    EXPECT_EQ(batch, LineBatch{"first"});
    producer.join();
    EXPECT_TRUE(pushed.load());
    batch.clear();
    EXPECT_TRUE(q.pop_all(batch));
    EXPECT_EQ(batch, LineBatch{"second"});
  }
}

TEST(NetTransport, LocalReadLineServesBatchesInOrder) {
  auto in = std::make_shared<LineQueue>(4);
  auto out = std::make_shared<LineQueue>(4);
  LocalConnection reader(in, out);
  ASSERT_TRUE(push_one(*in, "one"));
  ASSERT_TRUE(push_one(*in, "two"));
  std::string line;
  ASSERT_TRUE(reader.read_line(line));  // takes both lines
  EXPECT_EQ(line, "one");
  ASSERT_TRUE(push_one(*in, "three"));
  ASSERT_TRUE(reader.read_line(line));  // from the taken batch
  EXPECT_EQ(line, "two");
  ASSERT_TRUE(reader.read_line(line));  // refills
  EXPECT_EQ(line, "three");
  reader.close();
  EXPECT_FALSE(reader.read_line(line));
}

// ---- Wake-up stress (the timeouts in tests/CMakeLists.txt turn a lost
// wake-up into a failure instead of a hang). --------------------------

constexpr std::size_t kStressCapacities[] = {1, 2, 1024};

TEST(NetTransportStress, TwoProducersDeliverEveryLineOnceInOrder) {
  constexpr int kProducers = 2;
  constexpr int kLinesEach = 100'000;
  for (const std::size_t capacity : kStressCapacities) {
    auto in = std::make_shared<LineQueue>(capacity);
    LocalConnection reader(in, std::make_shared<LineQueue>(1));
    std::vector<std::thread> producers;
    for (int p = 0; p < kProducers; ++p) {
      producers.emplace_back([&in, p] {
        const std::string prefix = std::to_string(p) + ' ';
        for (int i = 0; i < kLinesEach; ++i) {
          if (!push_one(*in, prefix + std::to_string(i))) return;
        }
      });
    }
    std::vector<int> next(kProducers, 0);
    std::string line;
    bool delivered = true;
    bool in_order = true;
    for (int k = 0; k < kProducers * kLinesEach && delivered; ++k) {
      const int p = reader.read_line(line) ? line[0] - '0' : -1;
      delivered = p >= 0 && p < kProducers;
      if (delivered) {
        in_order = in_order && line.substr(2) == std::to_string(next[p]);
        ++next[p];
      }
    }
    // Every line is read by now, unless the reader stopped early; the
    // close then releases the producers instead of leaving them blocked.
    in->close();
    for (std::thread& t : producers) t.join();
    EXPECT_TRUE(delivered) << "capacity " << capacity << ": " << line;
    EXPECT_TRUE(in_order) << "capacity " << capacity;
    EXPECT_EQ(next, std::vector<int>(kProducers, kLinesEach))
        << "capacity " << capacity;
    // Nothing beyond the sent lines: the reader sees the end.
    EXPECT_FALSE(reader.read_line(line)) << "capacity " << capacity;
  }
}

TEST(NetTransportStress, CloseReleasesBlockedProducerAndConsumer) {
  for (const std::size_t capacity : kStressCapacities) {
    // A producer blocked on a full queue returns false on close.
    auto full = std::make_shared<LineQueue>(capacity);
    for (std::size_t i = 0; i < capacity; ++i) {
      ASSERT_TRUE(push_one(*full, "x"));
    }
    std::atomic<int> push_result{-1};
    std::thread producer(
        [&] { push_result.store(push_one(*full, "blocked") ? 1 : 0); });
    // A consumer blocked on an empty queue returns false on close.
    auto empty = std::make_shared<LineQueue>(capacity);
    LocalConnection reader(empty, std::make_shared<LineQueue>(1));
    std::atomic<int> read_result{-1};
    std::thread consumer([&] {
      std::string line;
      read_result.store(reader.read_line(line) ? 1 : 0);
    });
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    EXPECT_EQ(push_result.load(), -1) << "capacity " << capacity;
    EXPECT_EQ(read_result.load(), -1) << "capacity " << capacity;
    full->close();
    reader.close();
    producer.join();
    consumer.join();
    EXPECT_EQ(push_result.load(), 0) << "capacity " << capacity;
    EXPECT_EQ(read_result.load(), 0) << "capacity " << capacity;
  }
}

// Batch producers: each push_all is one random-sized batch of 1-5000
// lines, so chunks of a batch interleave with the other producer's and
// the reader takes whatever mix is queued with read_lines.
TEST(NetTransportStress, TwoBatchProducersDeliverEveryLineOnceInOrder) {
  constexpr int kProducers = 2;
  constexpr int kLinesEach = 60'000;
  for (const std::size_t capacity : kStressCapacities) {
    auto in = std::make_shared<LineQueue>(capacity);
    LocalConnection reader(in, std::make_shared<LineQueue>(1));
    std::vector<std::thread> producers;
    for (int p = 0; p < kProducers; ++p) {
      producers.emplace_back([&in, p, capacity] {
        std::mt19937 rng(static_cast<std::uint32_t>(capacity * 10 + p));
        std::uniform_int_distribution<int> size(1, 5000);
        const std::string prefix = std::to_string(p) + ' ';
        LineBatch batch;
        for (int i = 0; i < kLinesEach;) {
          batch.clear();
          for (int n = size(rng); n > 0 && i < kLinesEach; --n, ++i) {
            batch.push_back(prefix + std::to_string(i));
          }
          if (!push_all(*in, batch)) return;
        }
      });
    }
    std::vector<int> next(kProducers, 0);
    LineBatch lines;
    std::string bad;
    int received = 0;
    while (received < kProducers * kLinesEach && bad.empty() &&
           reader.read_lines(lines, true)) {
      if (lines.empty()) bad = "empty batch";
      for (const std::string& line : lines) {
        const int p = line[0] - '0';
        if (p < 0 || p >= kProducers ||
            line.substr(2) != std::to_string(next[p])) {
          bad = line;
          break;
        }
        ++next[p];
        ++received;
      }
    }
    // The close releases the producers if the reader stopped early.
    in->close();
    for (std::thread& t : producers) t.join();
    EXPECT_EQ(bad, "") << "capacity " << capacity;
    EXPECT_EQ(next, std::vector<int>(kProducers, kLinesEach))
        << "capacity " << capacity;
    // Nothing beyond the sent lines: the reader sees the end.
    EXPECT_FALSE(reader.read_lines(lines, true)) << "capacity " << capacity;
    EXPECT_TRUE(lines.empty()) << "capacity " << capacity;
  }
}

TEST(NetTransportStress, CloseReleasesProducerBlockedMidBatch) {
  for (const std::size_t capacity : kStressCapacities) {
    auto q = std::make_shared<LineQueue>(capacity);
    LineBatch batch;
    for (std::size_t i = 0; i < 2 * capacity + 1; ++i) {
      batch.push_back(std::to_string(i));
    }
    std::atomic<int> push_result{-1};
    std::thread producer(
        [&] { push_result.store(push_all(*q, batch) ? 1 : 0); });
    // The first chunk fills the empty queue; taking it proves the
    // producer is mid-batch. What is left cannot fit without another
    // take, so the producer is (or soon will be) blocked.
    LineBatch got;
    ASSERT_TRUE(q->pop_all(got));
    EXPECT_EQ(got, LineBatch(batch.begin(), batch.begin() + capacity))
        << "capacity " << capacity;
    q->close();
    producer.join();
    EXPECT_EQ(push_result.load(), 0) << "capacity " << capacity;
    // Whatever fit before the close is delivered in order.
    LineBatch rest;
    if (q->pop_all(rest)) {
      EXPECT_LE(rest.size(), capacity);
      EXPECT_TRUE(std::equal(rest.begin(), rest.end(),
                             batch.begin() + capacity))
          << "capacity " << capacity;
      rest.clear();
    }
    EXPECT_FALSE(q->pop_all(rest)) << "capacity " << capacity;
    EXPECT_FALSE(push_all(*q, batch)) << "capacity " << capacity;
  }
}

TEST(NetTransport, LocalListenerConnectAcceptRoundTrip) {
  LocalListener listener;
  std::unique_ptr<Connection> client = listener.connect();
  std::unique_ptr<Connection> server = listener.accept();
  ASSERT_TRUE(client && server);

  client->write_line("ping");
  std::string line;
  ASSERT_TRUE(server->read_line(line));
  EXPECT_EQ(line, "ping");
  server->write_line("pong");
  ASSERT_TRUE(client->read_line(line));
  EXPECT_EQ(line, "pong");

  client->close();
  EXPECT_FALSE(server->read_line(line));
}

// Without wait, read_lines returns at once: true with no lines while
// the connection is open and nothing is queued, false once it closed.
TEST(NetTransport, LocalReadLinesWithoutWaitReturnsAtOnce) {
  LocalListener listener;
  std::unique_ptr<Connection> client = listener.connect();
  std::unique_ptr<Connection> server = listener.accept();
  ASSERT_TRUE(client && server);
  LineBatch lines;
  EXPECT_TRUE(server->read_lines(lines, false));
  EXPECT_TRUE(lines.empty());
  client->write_lines(LineBatch{"a", "b"});
  EXPECT_TRUE(server->read_lines(lines, false));
  EXPECT_EQ(lines, (LineBatch{"a", "b"}));
  EXPECT_TRUE(server->read_lines(lines, false));
  EXPECT_TRUE(lines.empty());
  client->close();
  EXPECT_FALSE(server->read_lines(lines, false));
  EXPECT_TRUE(lines.empty());
}

TEST(NetTransport, ClosedLocalListenerUnblocksAcceptAndRejectsConnect) {
  LocalListener listener;
  std::thread closer([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    listener.close();
  });
  EXPECT_EQ(listener.accept(), nullptr);
  closer.join();
  EXPECT_THROW(listener.connect(), Error);
}

// ---- TCP loopback transport. -----------------------------------------

TEST(NetTransport, TcpLoopbackLineRoundTrip) {
  SocketListener listener(0);  // ephemeral port
  ASSERT_GT(listener.port(), 0);

  std::thread server([&] {
    std::unique_ptr<Connection> conn = listener.accept();
    ASSERT_TRUE(conn);
    std::string line;
    while (conn->read_line(line)) {
      conn->write_line("echo " + line);
    }
    conn->close();
  });

  SocketConnection client(TcpStream::connect("127.0.0.1", listener.port()));
  client.write_line("hello");
  client.write_line("world");
  std::string line;
  ASSERT_TRUE(client.read_line(line));
  EXPECT_EQ(line, "echo hello");
  ASSERT_TRUE(client.read_line(line));
  EXPECT_EQ(line, "echo world");
  client.close();
  server.join();
  listener.close();
}

// read_lines takes every complete line already received, strips a
// '\r', and delivers the lines before an oversize one ahead of its
// LineTooLong.
TEST(NetTransport, TcpReadLinesDeliversCompleteLinesThenTooLong) {
  SocketListener listener(0);
  TcpStream peer = TcpStream::connect("127.0.0.1", listener.port());
  std::unique_ptr<Connection> conn = listener.accept();
  ASSERT_TRUE(conn);
  std::thread sender([&] {
    const std::string payload =
        "a\r\nb\nc\n" + std::string(kMaxLineBytes + 1, 'x');
    try {
      peer.send_all(payload.data(), payload.size());
    } catch (const Error&) {
      // The reader stopped at the limit and closed first.
    }
  });
  LineBatch got;
  LineBatch lines;
  while (got.size() < 3 && conn->read_lines(lines, true)) {
    EXPECT_FALSE(lines.empty());
    got.insert(got.end(), lines.begin(), lines.end());
  }
  EXPECT_EQ(got, (LineBatch{"a", "b", "c"}));
  EXPECT_THROW(conn->read_lines(lines, true), LineTooLong);
  conn->close();
  sender.join();
  listener.close();
}

// Without wait, a socket read splits what is buffered, else makes one
// non-blocking receive: an unterminated tail stays buffered, and the
// peer's close reads as false.
TEST(NetTransport, TcpReadLinesWithoutWaitReturnsAtOnce) {
  SocketListener listener(0);
  TcpStream peer = TcpStream::connect("127.0.0.1", listener.port());
  std::unique_ptr<Connection> conn = listener.accept();
  ASSERT_TRUE(conn);
  LineBatch lines;
  EXPECT_TRUE(conn->read_lines(lines, false));
  EXPECT_TRUE(lines.empty());

  // Loopback delivery is not instant: poll until the bytes are in.
  auto poll = [&] {
    bool open = true;
    for (int i = 0; i < 5000 && open && lines.empty(); ++i) {
      open = conn->read_lines(lines, false);
      if (open && lines.empty()) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    }
    return open;
  };
  const std::string first = "a\r\nb";
  peer.send_all(first.data(), first.size());
  ASSERT_TRUE(poll());
  EXPECT_EQ(lines, LineBatch{"a"});
  // "b" has no newline yet: nothing to deliver, and no wait for it.
  EXPECT_TRUE(conn->read_lines(lines, false));
  EXPECT_TRUE(lines.empty());
  peer.send_all("\n", 1);
  ASSERT_TRUE(poll());
  EXPECT_EQ(lines, LineBatch{"b"});
  peer.close();
  lines.clear();
  EXPECT_FALSE(poll());
  EXPECT_TRUE(lines.empty());
  conn->close();
  listener.close();
}

TEST(NetTransport, ClosingTcpConnectionUnblocksBlockedReader) {
  SocketListener listener(0);
  std::thread server([&] {
    std::unique_ptr<Connection> conn = listener.accept();
    ASSERT_TRUE(conn);
    std::string line;
    EXPECT_FALSE(conn->read_line(line));  // woken by the client close
  });

  auto client = std::make_shared<SocketConnection>(
      TcpStream::connect("127.0.0.1", listener.port()));
  std::thread reader([client] {
    std::string line;
    EXPECT_FALSE(client->read_line(line));
  });
  // Give the reader time to block in recv; close() from this thread
  // must wake it (shutdown-first teardown), not strand it forever.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  client->close();
  reader.join();
  server.join();
}

TEST(NetTransport, ClosingTcpListenerUnblocksAccept) {
  SocketListener listener(0);
  std::thread closer([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    listener.close();
  });
  EXPECT_EQ(listener.accept(), nullptr);
  closer.join();
}

// ---- Protocol. -------------------------------------------------------

TEST(NetProtocol, ParsesUserRegistration) {
  Request req;
  std::string error;
  ASSERT_TRUE(parse_request("user 7 14 21 mail im video", req, error))
      << error;
  EXPECT_EQ(req.kind, RequestKind::kUser);
  EXPECT_EQ(req.user, 7);
  EXPECT_EQ(req.train_days, 14);
  EXPECT_EQ(req.num_days, 21);
  EXPECT_EQ(req.apps,
            (std::vector<std::string>{"mail", "im", "video"}));
}

TEST(NetProtocol, ParsesIngestVariants) {
  Request req;
  std::string error;
  ASSERT_TRUE(parse_request("ingest 3 screen-on 1000", req, error));
  EXPECT_EQ(req.kind, RequestKind::kIngest);
  EXPECT_EQ(req.record.kind, service::RecordKind::kScreenOn);
  EXPECT_EQ(req.record.time, 1000);

  ASSERT_TRUE(parse_request("ingest 3 screen-off 2000", req, error));
  EXPECT_EQ(req.record.kind, service::RecordKind::kScreenOff);

  ASSERT_TRUE(parse_request("ingest 3 app 1500 2 30000", req, error));
  EXPECT_EQ(req.record.kind, service::RecordKind::kAppForeground);
  EXPECT_EQ(req.record.app, 2);
  EXPECT_EQ(req.record.duration, 30000);

  ASSERT_TRUE(
      parse_request("ingest 3 net 1600 2 5000 1024 256 1 0", req, error));
  EXPECT_EQ(req.record.kind, service::RecordKind::kNetworkActivity);
  EXPECT_EQ(req.record.bytes_down, 1024);
  EXPECT_EQ(req.record.bytes_up, 256);
  EXPECT_TRUE(req.record.user_initiated);
  EXPECT_FALSE(req.record.deferrable);
}

TEST(NetProtocol, RejectsMalformedLines) {
  Request req;
  std::string error;
  const char* bad[] = {
      "",                               // empty
      "bogus 1",                        // unknown verb
      "user",                           // missing fields
      "user 1 13 21 mail",              // train_days not a multiple of 7
      "user 1 14 14 mail",              // num_days <= train_days
      "user 1 14 21",                   // no apps
      "ingest 1 screen-on",             // missing timestamp
      "ingest 1 screen-on xyz",         // non-numeric timestamp
      "ingest 1 app 5 2",               // missing duration
      "ingest 1 net 5 2 10 1 1 2 0",    // boolean out of range
      "ingest 1 warp 5",                // unknown record kind
      "get-schedule",                   // missing user
      "stats 3",                        // trailing junk
  };
  for (const char* line : bad) {
    error.clear();
    EXPECT_FALSE(parse_request(line, req, error)) << line;
    EXPECT_FALSE(error.empty()) << line;
  }
}

// A registration claiming more than kMaxTraceDays days gets an error
// reply instead of a session sized by the claim.
TEST(NetProtocolBounds, UserBeyondMaxTraceDaysGetsErrorReply) {
  Request req;
  std::string error;
  ASSERT_TRUE(parse_request("user 1 14 " + std::to_string(kMaxTraceDays) +
                                " mail",
                            req, error))
      << error;
  EXPECT_EQ(req.num_days, kMaxTraceDays);
  for (const std::string& days :
       {std::to_string(kMaxTraceDays + 1), std::string("900000000"),
        std::string("99999999999999999999")}) {
    error.clear();
    EXPECT_FALSE(parse_request("user 1 14 " + days + " mail", req, error))
        << days;
    const std::string reply = err_response(error);
    EXPECT_EQ(reply.rfind("err ", 0), 0u) << reply;
    EXPECT_NE(reply.find("num_days"), std::string::npos) << reply;
  }
}

bool same_request(const Request& a, const Request& b) {
  return a.kind == b.kind && a.user == b.user &&
         a.train_days == b.train_days && a.num_days == b.num_days &&
         a.apps == b.apps && a.record == b.record;
}

/// One random wire line: a well-formed line of a random verb, then up
/// to three mutations (truncation, doubled spaces, huge or signed
/// integers, non-ASCII and control bytes, dropped or repeated tokens).
std::string fuzzed_line(std::mt19937_64& rng) {
  auto pick = [&rng](std::size_t n) {
    return static_cast<std::size_t>(rng() % n);
  };
  auto number = [&]() -> std::string {
    switch (pick(8)) {
      case 0: return std::to_string(rng());  // up to 20 digits
      case 1: return "99999999999999999999999";
      case 2: return std::to_string(std::numeric_limits<std::int64_t>::min());
      case 3: return "-" + std::to_string(pick(100));
      case 4: return "0" + std::to_string(pick(1000));
      default: return std::to_string(pick(1'000'000));
    }
  };
  auto flag = [&]() -> std::string {
    const char* flags[] = {"0", "1", "2", "-1", "01", ""};
    return flags[pick(6)];
  };
  std::string line;
  switch (pick(11)) {
    case 0:
      line = "user " + number() + ' ' + std::to_string(7 * (1 + pick(3))) +
             ' ' + std::to_string(22 + pick(40));
      for (std::size_t a = 0, n = 1 + pick(4); a < n; ++a) {
        line += " app" + std::to_string(a);
      }
      break;
    case 1:
      line = "user " + number() + ' ' + number() + ' ' + number() + " mail";
      break;
    case 2: line = "ingest " + number() + " screen-on " + number(); break;
    case 3: line = "ingest " + number() + " screen-off " + number(); break;
    case 4:
      line = "ingest " + number() + " app " + number() + ' ' + number() +
             ' ' + number();
      break;
    case 5:
      line = "ingest " + number() + " net " + number() + ' ' + number() +
             ' ' + number() + ' ' + number() + ' ' + number() + ' ' +
             flag() + ' ' + flag();
      break;
    case 6: line = "finish " + number(); break;
    case 7: line = "get-schedule " + number(); break;
    case 8: line = "stats"; break;
    case 9: line = "drain"; break;
    default: line = "shutdown"; break;
  }
  for (std::size_t m = 0, n = pick(4); m < n && !line.empty(); ++m) {
    const std::size_t at = pick(line.size());
    switch (pick(6)) {
      case 0: line.resize(at); break;                  // truncation
      case 1: line.insert(at, " "); break;             // doubled space
      case 2:                                          // non-ASCII byte
        line.insert(at, 1, static_cast<char>(0x80 + pick(128)));
        break;
      case 3: {                                        // control byte
        const char controls[] = {'\0', '\t', '\r', '\x7f'};
        line[at] = controls[pick(4)];
        break;
      }
      case 4: line.erase(at, 1 + pick(6)); break;      // drop a span
      default: line += line.substr(at); break;         // repeat a tail
    }
  }
  return line;
}

// The wire parser is a trust boundary: whatever bytes arrive, it never
// throws, a rejected line always explains itself, and an accepted line
// means the same request after a format/parse round trip.
TEST(NetProtocolBounds, FuzzedLinesNeverThrowAndRoundTrip) {
  std::mt19937_64 rng(20141009);
  int accepted = 0;
  int rejected = 0;
  for (int i = 0; i < 50'000; ++i) {
    const std::string line = fuzzed_line(rng);
    Request parsed;
    std::string error;
    bool ok = false;
    ASSERT_NO_THROW(ok = parse_request(line, parsed, error)) << line;
    if (!ok) {
      ++rejected;
      ASSERT_FALSE(error.empty()) << line;
      continue;
    }
    ++accepted;
    const std::string formatted = format_request(parsed);
    Request again;
    ASSERT_TRUE(parse_request(formatted, again, error))
        << line << " -> " << formatted << ": " << error;
    ASSERT_TRUE(same_request(parsed, again)) << line << " -> " << formatted;
  }
  // The generator covers both sides of the boundary.
  EXPECT_GT(accepted, 5'000);
  EXPECT_GT(rejected, 5'000);
}

TEST(NetProtocol, FormatParsesBackBitIdentical) {
  std::vector<Request> requests;
  {
    Request user;
    user.kind = RequestKind::kUser;
    user.user = 5;
    user.train_days = 14;
    user.num_days = 21;
    user.apps = {"mail", "im"};
    requests.push_back(user);
  }
  requests.push_back(make_screen_request(5, true, 123));
  requests.push_back(make_screen_request(5, false, 456));
  requests.push_back(make_app_request(5, 789, 1, 60000));
  requests.push_back(make_net_request(5, 900, 0, 5000, 4096, 128,
                                      false, true));
  {
    Request fin;
    fin.kind = RequestKind::kFinish;
    fin.user = 5;
    requests.push_back(fin);
  }
  for (RequestKind kind : {RequestKind::kGetSchedule, RequestKind::kStats,
                           RequestKind::kDrain, RequestKind::kShutdown}) {
    Request r;
    r.kind = kind;
    r.user = 5;
    requests.push_back(r);
  }

  for (const Request& original : requests) {
    const std::string line = format_request(original);
    Request parsed;
    std::string error;
    ASSERT_TRUE(parse_request(line, parsed, error))
        << line << ": " << error;
    EXPECT_EQ(parsed.kind, original.kind) << line;
    if (original.kind == RequestKind::kUser) {
      EXPECT_EQ(parsed.apps, original.apps);
      EXPECT_EQ(parsed.train_days, original.train_days);
      EXPECT_EQ(parsed.num_days, original.num_days);
    }
    if (original.kind == RequestKind::kIngest) {
      EXPECT_EQ(parsed.record, original.record) << line;
    }
    // A second round trip must be textually identical.
    EXPECT_EQ(format_request(parsed), line);
  }
}

TEST(NetProtocol, ResponseHelpers) {
  EXPECT_EQ(ok_response(), "ok");
  EXPECT_EQ(ok_response("drained"), "ok drained");
  EXPECT_EQ(err_response("nope"), "err nope");
}

}  // namespace
}  // namespace netmaster::net
