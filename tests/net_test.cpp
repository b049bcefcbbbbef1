// Tests for the portable networking layer (src/net/): line transports (in-process and TCP loopback), and the netmasterd
// wire protocol.

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
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

TEST(NetTransport, LineQueuePushPopAndClose) {
  LineQueue q(2);
  EXPECT_TRUE(q.push("a"));
  EXPECT_TRUE(q.push("b"));
  std::string line;
  EXPECT_TRUE(q.pop(line));
  EXPECT_EQ(line, "a");
  q.close();
  // Closed but not drained: the remaining line is still delivered.
  EXPECT_TRUE(q.pop(line));
  EXPECT_EQ(line, "b");
  EXPECT_FALSE(q.pop(line));
  EXPECT_FALSE(q.push("c"));
}

TEST(NetTransport, LineQueueBlocksWhenFullUntilPopped) {
  LineQueue q(1);
  ASSERT_TRUE(q.push("first"));
  std::atomic<bool> pushed{false};
  std::thread producer([&] {
    q.push("second");  // must block until the consumer pops
    pushed.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(pushed.load());
  std::string line;
  EXPECT_TRUE(q.pop(line));
  producer.join();
  EXPECT_TRUE(pushed.load());
  EXPECT_TRUE(q.pop(line));
  EXPECT_EQ(line, "second");
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
