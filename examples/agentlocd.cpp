// agentlocd — a real agent-location daemon built from the repo's hash scheme.
//
// Serves the locate protocol (src/net/locate_service.hpp) over a Unix-domain
// or TCP-loopback socket: clients register/update mobile-agent locations and
// issue locate queries; agent ids route through a hashtree::HashTree split
// into --partitions IAgent shards, exactly the paper's extendible hash — but
// answering RPCs between real processes instead of simulated messages.
//
// With --workers N the daemon shards into N serving threads (LocateServer),
// each on its own epoll loop: worker 0 listens on --listen itself, worker k
// on the derived address (unix path + ".w<k>" / tcp port + k). Every worker
// advertises the leaf → worker ownership map via kPartitionMap, answers only
// for the leaves it owns and refuses the rest with kNotResponsible, so
// routing clients (agentloc_loadgen) spread load without any shared lock.
//
//   agentlocd --listen unix:/tmp/agentloc.sock --partitions 8
//   agentlocd --listen tcp:127.0.0.1:7421 --workers 4
//   agentlocd --probe            # exit 0: sockets work here; 77: they don't
//
// Pair it with agentloc_loadgen (examples/agentloc_loadgen.cpp); the two
// form the end-to-end row of bench_transport and the CI transport smoke.

#include <chrono>
#include <csignal>
#include <cstdio>
#include <stdexcept>
#include <string>
#include <thread>

#include "net/locate_server.hpp"
#include "net/socket_transport.hpp"
#include "util/flags.hpp"

namespace {

volatile std::sig_atomic_t g_stop = 0;

void handle_signal(int) { g_stop = 1; }

}  // namespace

int main(int argc, char** argv) {
  using namespace agentloc;

  // Every flag is read up front: a malformed, non-positive or out-of-bounds
  // value exits 2 naming the flag, before anything else happens.
  util::Flags flags(argc, argv);
  bool help = false;
  bool probe = false;
  bool quiet = false;
  std::string listen_text;
  net::LocateServer::Config config;
  try {
    help = flags.get_bool("help", false);
    probe = flags.get_bool("probe", false);
    quiet = flags.get_bool("quiet", false);
    listen_text = flags.get_string("listen", "unix:/tmp/agentloc.sock");
    config.partitions = static_cast<std::size_t>(flags.get_int_in(
        "partitions", 8, 1, net::PartitionMap::kMaxPartitions));
    config.workers = static_cast<std::size_t>(
        flags.get_int_in("workers", 1, 1, net::PartitionMap::kMaxWorkers));
    flags.fail_on_unknown();
  } catch (const std::invalid_argument& error) {
    std::fprintf(stderr, "agentlocd: %s\n", error.what());
    return 2;
  }

  if (help) {
    std::printf(
        "usage: agentlocd [--listen ADDR] [--partitions N] [--workers N] "
        "[--probe]\n"
        "  --listen ADDR    unix:/path or tcp:host:port "
        "(default unix:/tmp/agentloc.sock)\n"
        "  --partitions N   IAgent shards in the hash tree (default 8, at "
        "most 2^20)\n"
        "  --workers N      serving threads, each on its own epoll loop;\n"
        "                   worker k>0 listens on the derived address\n"
        "                   (unix +\".w<k>\" / tcp port+k; at most 4096)\n"
        "  --probe          exit 0 if this sandbox can create and watch "
        "sockets, 77 otherwise\n"
        "  --quiet          suppress the startup/shutdown lines\n");
    return 0;
  }

  // CI smoke + tests call this first; exit 77 is the standard "skipped"
  // convention (automake/ctest) and keeps sandboxes without sockets green.
  if (probe) {
    return net::SocketTransport::sockets_available() ? 0 : 77;
  }

  if (!net::SocketTransport::sockets_available()) {
    std::fprintf(stderr, "agentlocd: sockets unavailable in this sandbox\n");
    return 77;
  }

  net::SocketAddress address;
  std::string error;
  if (!net::SocketAddress::parse(listen_text, address, &error)) {
    std::fprintf(stderr, "agentlocd: bad --listen: %s\n", error.c_str());
    return 2;
  }

  net::LocateServer server(config);
  if (!server.start(address, &error)) {
    std::fprintf(stderr, "agentlocd: %s\n", error.c_str());
    return 1;
  }

  std::signal(SIGINT, handle_signal);
  std::signal(SIGTERM, handle_signal);

  if (!quiet) {
    std::printf("agentlocd: serving %s, %zu partitions, %zu worker(s)\n",
                address.to_string().c_str(), config.partitions,
                server.worker_count());
    std::fflush(stdout);
  }

  // Workers serve on their own threads; this thread just waits for a signal.
  while (g_stop == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  server.stop();

  if (!quiet) {
    std::uint64_t updates = 0, applied = 0, locates = 0, found = 0,
                  refused = 0, bindings = 0;
    for (const net::LocateServer::WorkerStats& w : server.stats()) {
      updates += w.counters.updates;
      applied += w.counters.updates_applied;
      locates += w.counters.locates;
      found += w.counters.locates_found;
      refused += w.counters.not_responsible;
      bindings += w.bindings;
    }
    std::printf(
        "agentlocd: served %llu updates (%llu applied), %llu locates "
        "(%llu found), %llu not responsible, %llu bindings held\n",
        static_cast<unsigned long long>(updates),
        static_cast<unsigned long long>(applied),
        static_cast<unsigned long long>(locates),
        static_cast<unsigned long long>(found),
        static_cast<unsigned long long>(refused),
        static_cast<unsigned long long>(bindings));
    if (server.worker_count() > 1) {
      for (std::size_t k = 0; k < server.stats().size(); ++k) {
        const net::LocateServer::WorkerStats& w = server.stats()[k];
        std::printf(
            "agentlocd:   worker %zu (%s): %llu locates, %llu updates\n",
            k, w.address.c_str(),
            static_cast<unsigned long long>(w.counters.locates),
            static_cast<unsigned long long>(w.counters.updates));
      }
    }
  }
  return 0;
}
