// netmasterd — run the streaming NetMaster service on a TCP port.
//
// Serves the line protocol of net/protocol.hpp until an in-band
// `shutdown` request arrives. Drive it with examples/netmasterd_loadgen
// or by hand:
//
//   $ ./netmasterd 4242 &
//   $ printf 'user 1 14 21 mail im\nstats\nshutdown\n' | nc 127.0.0.1 4242
//
//   usage: netmasterd [port] [shards]
//     port    TCP port to listen on, 0-65535; 0 picks an ephemeral one
//             (default 0)
//     shards  worker shards owning per-user state, 1-256 (default 4)
#include <cstdint>
#include <iostream>

#include "cli_args.hpp"
#include "daemon/netmasterd.hpp"
#include "net/transport.hpp"

int main(int argc, char** argv) {
  using namespace netmaster;

  const auto port = examples::int_arg_or_exit<std::uint16_t>(
      argc, argv, 1, 0, 0, 65535, "port");
  const int shards =
      examples::int_arg_or_exit(argc, argv, 2, 4, 1, 256, "shards");

  daemon::DaemonConfig config;
  config.num_shards = shards;
  daemon::Netmasterd service(config);

  try {
    net::SocketListener listener(port);
    std::cout << "netmasterd: listening on 127.0.0.1:" << listener.port()
              << " with " << shards << " shard(s)\n"
              << "netmasterd: send `shutdown` to stop\n";
    service.serve(listener);  // blocks until an in-band shutdown
  } catch (const std::exception& e) {
    std::cerr << "netmasterd: " << e.what() << "\n";
    return 1;
  }

  std::cout << "netmasterd: stopped\n";
  return 0;
}
