// agentloc_loadgen — load generator + correctness checker for agentlocd.
//
// Registers --agents mobile agents at synthetic nodes, then runs --ops
// pipelined locate queries against the daemon and verifies every reply
// against its own ground truth (--verify, on by default). Exits nonzero on
// any mismatch, which is what the CI transport smoke keys off.
//
//   agentlocd --listen unix:/tmp/agentloc.sock &
//   agentloc_loadgen --connect unix:/tmp/agentloc.sock --agents 1000 --ops 20000
//
// Output is one summary line: ops, wall time, ops/s, mismatches.

#include <chrono>
#include <cstdio>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <vector>

#include "net/locate_service.hpp"
#include "net/socket_transport.hpp"
#include "util/flags.hpp"
#include "util/rng.hpp"

int main(int argc, char** argv) {
  using namespace agentloc;

  // Every flag is read up front: a malformed value, or a count below its
  // minimum, exits 2 naming the flag, before anything else happens.
  util::Flags flags(argc, argv);
  bool help = false;
  std::string connect_text;
  std::uint64_t agents = 0, ops = 0, moves = 0, seed = 0;
  std::size_t window = 0;
  bool verify = true;
  bool cluster = false;
  try {
    help = flags.get_bool("help", false);
    connect_text = flags.get_string("connect", "");
    agents = static_cast<std::uint64_t>(flags.get_int_in("agents", 1000, 1));
    ops = static_cast<std::uint64_t>(flags.get_int_in("ops", 20000, 1));
    moves = static_cast<std::uint64_t>(flags.get_int_in(
        "moves", static_cast<std::int64_t>(agents / 4), 0));
    window = static_cast<std::size_t>(flags.get_int_in("window", 64, 1));
    seed = static_cast<std::uint64_t>(flags.get_int("seed", 1));
    verify = flags.get_bool("verify", true);
    cluster = flags.get_bool("cluster", false);
    flags.fail_on_unknown();
  } catch (const std::invalid_argument& error) {
    std::fprintf(stderr, "agentloc_loadgen: %s\n", error.what());
    return 2;
  }

  if (help) {
    std::printf(
        "usage: agentloc_loadgen --connect ADDR [--agents N] [--ops N]\n"
        "  --connect ADDR  unix:/path or tcp:host:port of agentlocd\n"
        "  --cluster BOOL  fetch the partition map and route ops to the\n"
        "                  owning worker shard (default false)\n"
        "  --agents N      registered population (default 1000)\n"
        "  --ops N         locate queries to issue (default 20000)\n"
        "  --moves N       re-updates between query phases (default agents/4)\n"
        "  --window N      pipelined requests in flight (default 64)\n"
        "  --seed S        query-stream RNG seed (default 1)\n"
        "  --verify BOOL   check replies against ground truth (default true)\n");
    return 0;
  }

  if (!net::SocketTransport::sockets_available()) {
    std::fprintf(stderr,
                 "agentloc_loadgen: sockets unavailable in this sandbox\n");
    return 77;
  }

  if (connect_text.empty()) {
    std::fprintf(stderr, "agentloc_loadgen: --connect is required\n");
    return 2;
  }

  net::SocketAddress address;
  std::string error;
  if (!net::SocketAddress::parse(connect_text, address, &error)) {
    std::fprintf(stderr, "agentloc_loadgen: bad --connect: %s\n",
                 error.c_str());
    return 2;
  }

  net::LocateClient client;
  const bool ok = cluster ? client.connect_cluster(address, &error)
                          : client.connect(address, &error);
  if (!ok) {
    std::fprintf(stderr, "agentloc_loadgen: connect failed: %s\n",
                 error.c_str());
    return 1;
  }

  // Ground truth: agent id -> (node, seq), maintained in lockstep with the
  // updates we send. Agent ids are spread by mix64 so they exercise every
  // hash-tree partition, like real 64-bit agent ids would.
  std::unordered_map<std::uint64_t, std::pair<std::uint32_t, std::uint64_t>>
      truth;
  truth.reserve(agents);
  std::vector<std::uint64_t> ids;
  ids.reserve(agents);

  for (std::uint64_t i = 1; i <= agents; ++i) {
    const std::uint64_t id = util::mix64(i);
    const auto node = static_cast<std::uint32_t>(i % 97 + 1);
    client.send_update(id, node, 1);
    truth[id] = {node, 1};
    ids.push_back(id);
  }
  client.flush();
  // Updates are one-way; a ping round-trip fences them (frames are ordered
  // per connection) so the query phase reads a fully applied table.
  if (!client.ping()) {
    std::fprintf(stderr, "agentloc_loadgen: daemon lost during setup\n");
    return 1;
  }

  util::Rng rng(seed);
  // A burst of re-updates so seq>1 paths and newest-seq-wins get exercised.
  for (std::uint64_t m = 0; m < moves; ++m) {
    const std::uint64_t id = ids[rng.next_below(ids.size())];
    auto& entry = truth[id];
    entry.first = static_cast<std::uint32_t>(rng.next_below(97) + 1);
    entry.second += 1;
    client.send_update(id, entry.first, entry.second);
  }
  client.flush();
  if (!client.ping()) {
    std::fprintf(stderr, "agentloc_loadgen: daemon lost during moves\n");
    return 1;
  }

  std::uint64_t mismatches = 0;
  std::uint64_t completed = 0;
  std::vector<std::uint64_t> in_flight_agent(window + ops, 0);

  const auto start = std::chrono::steady_clock::now();
  std::uint64_t issued = 0;
  while (completed < ops) {
    const std::uint64_t batch =
        std::min<std::uint64_t>(window, ops - issued);
    for (std::uint64_t b = 0; b < batch; ++b) {
      const std::uint64_t id = ids[rng.next_below(ids.size())];
      ++issued;
      in_flight_agent[issued] = id;
      client.send_locate(id, issued);
    }
    const auto replies =
        client.drain(issued - completed, /*timeout_ms=*/10000);
    if (replies.empty() && issued > completed) {
      std::fprintf(stderr, "agentloc_loadgen: timed out waiting for replies "
                           "(%llu of %llu done)\n",
                   static_cast<unsigned long long>(completed),
                   static_cast<unsigned long long>(ops));
      return 1;
    }
    for (const auto& item : replies) {
      ++completed;
      if (!verify) continue;
      const std::uint64_t id = in_flight_agent[item.correlation];
      const auto& expect = truth[id];
      const bool ok =
          item.reply.status == core::LocateStatus::kFound &&
          item.reply.node == expect.first && item.reply.seq == expect.second;
      if (!ok) {
        ++mismatches;
        if (mismatches <= 5) {
          std::fprintf(stderr,
                       "mismatch: agent %llx expected node %u seq %llu, got "
                       "status %u node %u seq %llu\n",
                       static_cast<unsigned long long>(id), expect.first,
                       static_cast<unsigned long long>(expect.second),
                       static_cast<unsigned>(item.reply.status),
                       item.reply.node,
                       static_cast<unsigned long long>(item.reply.seq));
        }
      }
    }
  }
  const auto elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();

  const double ops_per_s = elapsed > 0 ? static_cast<double>(completed) / elapsed
                                       : 0.0;
  std::printf(
      "agentloc_loadgen: %llu locates in %.3fs (%.0f ops/s), window %zu, "
      "%llu mismatches\n",
      static_cast<unsigned long long>(completed), elapsed, ops_per_s, window,
      static_cast<unsigned long long>(mismatches));
  if (cluster) {
    std::printf("agentloc_loadgen: %zu worker connection(s), ops per worker:",
                client.worker_count());
    for (const std::uint64_t count : client.per_worker_ops()) {
      std::printf(" %llu", static_cast<unsigned long long>(count));
    }
    std::printf("\n");
  }
  return mismatches == 0 ? 0 : 1;
}
