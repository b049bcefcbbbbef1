// netmasterd_loadgen — replay a deterministic synthetic fleet against
// a running netmasterd over TCP.
//
// Builds the same seeded LoadPlan the daemon tests and the throughput
// bench use (archetype-cycling users, events sorted by time with the
// screen-off-before-screen-on tie rule), streams it down one
// connection, then fetches every user's schedule and the daemon stats.
//
//   usage: netmasterd_loadgen <port> [users] [train_days] [eval_days]
//                             [seed] [--shutdown]
//     port        the daemon's TCP port, 1-65535
//     users       synthetic users, 1-100000 (default 8)
//     train_days  a multiple of 7 up to 3650 (default 14)
//     eval_days   1-3650 (default 7)
//     --shutdown  also stop the daemon after the run
#include <chrono>
#include <cstring>
#include <iostream>
#include <string>

#include "cli_args.hpp"
#include "daemon/loadgen.hpp"
#include "net/transport.hpp"

int main(int argc, char** argv) {
  using namespace netmaster;

  if (argc < 2) {
    std::cerr << "usage: netmasterd_loadgen <port> [users] [train_days] "
                 "[eval_days] [seed] [--shutdown]\n";
    return 2;
  }
  bool shutdown_after = false;
  if (std::strcmp(argv[argc - 1], "--shutdown") == 0) {
    shutdown_after = true;
    --argc;
  }
  const auto port = examples::int_arg_or_exit<std::uint16_t>(
      argc, argv, 1, 0, 1, 65535, "port");
  daemon::LoadConfig load;
  load.users = examples::int_arg_or_exit(argc, argv, 2, load.users, 1,
                                         100'000, "users");
  load.train_days = examples::int_arg_or_exit(
      argc, argv, 3, load.train_days, 1, kMaxTraceDays, "train_days");
  load.eval_days = examples::int_arg_or_exit(
      argc, argv, 4, load.eval_days, 1, kMaxTraceDays, "eval_days");
  load.seed = examples::seed_arg_or_exit(argc, argv, 5, load.seed);

  try {
    const daemon::LoadPlan plan = daemon::build_load_plan(load);
    const std::vector<std::string> lines =
        daemon::plan_request_lines(plan);
    std::cout << "loadgen: " << plan.users.size() << " users, "
              << plan.events.size() << " events, seed " << load.seed
              << "\n";

    net::SocketConnection conn(net::TcpStream::connect("127.0.0.1", port));
    std::string reply;
    const auto start = std::chrono::steady_clock::now();
    std::size_t errors = 0;
    for (const std::string& line : lines) {
      conn.write_line(line);
      if (!conn.read_line(reply)) {
        std::cerr << "loadgen: connection closed mid-stream\n";
        return 1;
      }
      if (reply.rfind("ok", 0) != 0) {
        ++errors;
        std::cerr << "loadgen: " << line << " -> " << reply << "\n";
      }
    }
    const double seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      start)
            .count();

    conn.write_line("drain");
    conn.read_line(reply);
    for (const daemon::LoadUser& user : plan.users) {
      conn.write_line("get-schedule " +
                      std::to_string(user.session.user));
      if (conn.read_line(reply)) {
        std::cout << "user " << user.session.user << ": " << reply
                  << "\n";
      }
    }
    conn.write_line("stats");
    if (conn.read_line(reply)) std::cout << reply << "\n";

    std::cout << "loadgen: " << lines.size() << " requests in " << seconds
              << "s ("
              << (seconds > 0.0
                      ? static_cast<double>(lines.size()) / seconds
                      : 0.0)
              << " req/s), " << errors << " errors\n";
    if (shutdown_after) {
      conn.write_line("shutdown");
      conn.read_line(reply);
      std::cout << "loadgen: " << reply << "\n";
    }
    conn.close();
    return errors == 0 ? 0 : 1;
  } catch (const std::exception& e) {
    std::cerr << "loadgen: " << e.what() << "\n";
    return 1;
  }
}
