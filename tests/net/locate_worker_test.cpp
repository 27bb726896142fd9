#include "net/locate_server.hpp"

#include <gtest/gtest.h>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <atomic>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <string>
#include <unordered_map>
#include <vector>

#include "util/rng.hpp"

namespace agentloc::net {
namespace {

#define SKIP_WITHOUT_SOCKETS()                       \
  if (!SocketTransport::sockets_available()) {       \
    GTEST_SKIP() << "sandbox cannot create sockets"; \
  }

std::string unique_socket_path(const char* tag) {
  static std::atomic<int> counter{0};
  return "/tmp/agentloc_" + std::string(tag) + "_" +
         std::to_string(::getpid()) + "_" +
         std::to_string(counter.fetch_add(1)) + ".sock";
}

SocketAddress unix_address(const std::string& path) {
  SocketAddress address;
  std::string error;
  EXPECT_TRUE(SocketAddress::parse("unix:" + path, address, &error)) << error;
  return address;
}

/// A fresh TCP base port per test, spaced so worker k (port + k) never
/// collides with another test's base.
std::uint16_t next_tcp_port() {
  static std::atomic<int> counter{0};
  const int base = 21000 + (::getpid() % 997) * 16;
  return static_cast<std::uint16_t>(base + counter.fetch_add(1) * 16);
}

TEST(WorkerAddress, DerivesPerWorkerListenAddresses) {
  const SocketAddress uds = unix_address("/tmp/agl.sock");
  SocketAddress out;
  std::string error;
  ASSERT_TRUE(LocateServer::worker_address(uds, 0, out, &error)) << error;
  EXPECT_EQ(out.to_string(), "unix:/tmp/agl.sock");
  ASSERT_TRUE(LocateServer::worker_address(uds, 2, out, &error)) << error;
  EXPECT_EQ(out.to_string(), "unix:/tmp/agl.sock.w2");

  SocketAddress tcp;
  ASSERT_TRUE(SocketAddress::parse("tcp:127.0.0.1:7421", tcp, &error));
  ASSERT_TRUE(LocateServer::worker_address(tcp, 0, out, &error)) << error;
  EXPECT_EQ(out.port, 7421);
  ASSERT_TRUE(LocateServer::worker_address(tcp, 3, out, &error)) << error;
  EXPECT_EQ(out.port, 7424);
  SocketAddress top;
  ASSERT_TRUE(SocketAddress::parse("tcp:127.0.0.1:65534", top, &error));
  ASSERT_TRUE(LocateServer::worker_address(top, 1, out, &error)) << error;
  EXPECT_EQ(out.port, 65535);
  EXPECT_FALSE(LocateServer::worker_address(top, 2, out, &error));
}

/// The error a server reports when started on `base_text`, or "" if it
/// started.
std::string start_error(std::size_t workers, std::size_t partitions,
                        const std::string& base_text) {
  SocketAddress base;
  std::string error;
  EXPECT_TRUE(SocketAddress::parse(base_text, base, &error)) << error;
  LocateServer::Config config;
  config.workers = workers;
  config.partitions = partitions;
  LocateServer server(config);
  return server.start(base, &error) ? "" : error;
}

TEST(WorkerAddress, RefusesTcpPortPastRange) {
  // port + 1 would wrap to port 0, which binds an ephemeral port.
  const std::string error = start_error(2, 4, "tcp:127.0.0.1:65535");
  EXPECT_NE(error.find("worker 1"), std::string::npos) << error;
}

TEST(WorkerAddress, RefusesUnixPathPastSunPath) {
  // 95 bytes leave room in sun_path (108 with the NUL) for the temporary
  // name a listener binds first; 95 + ".w1" does not, and bind would
  // silently truncate it.
  std::string path = unique_socket_path("long");
  path.insert(5, 95 - path.size(), 'x');
  ASSERT_EQ(path.size(), 95u);
  const std::string error = start_error(2, 4, "unix:" + path);
  EXPECT_NE(error.find("worker 1"), std::string::npos) << error;
  // Refused before anything bound: worker 0's path was never created.
  EXPECT_NE(::access(path.c_str(), F_OK), 0);
  ::unlink(path.c_str());
}

TEST(WorkerConfig, ClampsWorkersToPartitions) {
  LocateServer::Config config;
  config.workers = 16;
  config.partitions = 4;
  LocateServer server(config);
  EXPECT_EQ(server.worker_count(), 4u);
}

TEST(WorkerConfig, StartRefusesPartitionsPastMapBound) {
  // A map of 2^20 + 1 leaves is one every client's decode rejects.
  const std::string path = unique_socket_path("bound");
  const std::string error =
      start_error(1, PartitionMap::kMaxPartitions + 1, "unix:" + path);
  EXPECT_NE(error.find("partitions 1048577"), std::string::npos) << error;
  EXPECT_NE(error.find("1048576"), std::string::npos) << error;
  // Refused before anything bound.
  EXPECT_NE(::access(path.c_str(), F_OK), 0);
}

TEST(WorkerConfig, StartRefusesWorkersPastMapBound) {
  // Worker 536 of this base would need port 65536, so a server that skipped
  // the bound check would still fail before starting a thread.
  const std::size_t workers = PartitionMap::kMaxWorkers + 1;
  const std::string error =
      start_error(workers, workers, "tcp:127.0.0.1:65000");
  EXPECT_NE(error.find("workers 4097"), std::string::npos) << error;
  EXPECT_NE(error.find("4096"), std::string::npos) << error;
}

/// Whether the server at `base` answers as one directory: a client's acked
/// update of `agent` is read back by each of eight clients that dial anew.
bool serves_one_directory(const SocketAddress& base, std::uint64_t agent) {
  LocateClient writer;
  std::string error;
  if (!writer.connect(base, &error) ||
      !writer.update(agent, /*node=*/5, /*seq=*/1).value_or(false)) {
    return false;
  }
  for (int i = 0; i < 8; ++i) {
    LocateClient reader;
    if (!reader.connect(base, &error)) return false;
    const auto reply = reader.locate(agent);
    if (!reply || reply->status != core::LocateStatus::kFound ||
        reply->node != 5) {
      return false;
    }
  }
  return true;
}

LocateServer one_worker_server() {
  return LocateServer(LocateServer::Config{/*workers=*/1, /*partitions=*/8});
}

TEST(WorkerConfig, StartRefusesATakenTcpPort) {
  SKIP_WITHOUT_SOCKETS();
  // Listeners do not share ports, so the kernel refuses a second listener
  // on a live one and new clients cannot be split between two directories.
  SocketAddress base;
  std::string error;
  ASSERT_TRUE(SocketAddress::parse(
      "tcp:127.0.0.1:" + std::to_string(next_tcp_port()), base, &error));
  LocateServer first = one_worker_server();
  if (!first.start(base, &error)) GTEST_SKIP() << "tcp bind: " << error;
  {
    LocateServer second = one_worker_server();
    EXPECT_FALSE(second.start(base, &error));
    EXPECT_NE(error.find("worker 0"), std::string::npos) << error;
    EXPECT_NE(error.find("in use"), std::string::npos) << error;
  }
  EXPECT_TRUE(serves_one_directory(base, util::mix64(1)));
}

TEST(WorkerConfig, StartRefusesALiveUnixPath) {
  SKIP_WITHOUT_SOCKETS();
  const SocketAddress base = unix_address(unique_socket_path("live"));
  LocateServer first = one_worker_server();
  std::string error;
  ASSERT_TRUE(first.start(base, &error)) << error;
  {
    LocateServer second = one_worker_server();
    EXPECT_FALSE(second.start(base, &error));
    EXPECT_NE(error.find("worker 0"), std::string::npos) << error;
    EXPECT_NE(error.find("in use"), std::string::npos) << error;
  }
  // The refused server left the first one's socket where it was.
  EXPECT_TRUE(std::filesystem::is_socket(base.path));
  EXPECT_TRUE(serves_one_directory(base, util::mix64(2)));
}

TEST(WorkerConfig, StartLeavesARegularFileAlone) {
  SKIP_WITHOUT_SOCKETS();
  const std::string path = unique_socket_path("file");
  std::ofstream(path) << "not a socket\n";
  LocateServer server = one_worker_server();
  std::string error;
  EXPECT_FALSE(server.start(unix_address(path), &error));
  EXPECT_NE(error.find("worker 0"), std::string::npos) << error;
  EXPECT_NE(error.find("not a socket"), std::string::npos) << error;
  std::string kept;
  std::getline(std::ifstream(path), kept);
  EXPECT_EQ(kept, "not a socket");
  std::filesystem::remove(path);
}

TEST(WorkerConfig, StartReclaimsAStaleUnixSocket) {
  SKIP_WITHOUT_SOCKETS();
  // A listener that closed without unlinking its path, as after a crash:
  // the socket file stays, and connecting to it is refused.
  const SocketAddress base = unix_address(unique_socket_path("stale"));
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_un sun{};
  sun.sun_family = AF_UNIX;
  std::strncpy(sun.sun_path, base.path.c_str(), sizeof(sun.sun_path) - 1);
  ASSERT_EQ(::bind(fd, reinterpret_cast<sockaddr*>(&sun), sizeof(sun)), 0);
  ASSERT_EQ(::listen(fd, 1), 0);
  ::close(fd);
  ASSERT_TRUE(std::filesystem::is_socket(base.path));

  LocateServer server = one_worker_server();
  std::string error;
  ASSERT_TRUE(server.start(base, &error)) << error;
  EXPECT_TRUE(serves_one_directory(base, util::mix64(3)));
}

TEST(WorkerPartitionMap, EncodeDecodeRoundTrips) {
  PartitionMap map;
  map.workers = 3;
  map.partitions = 5;
  map.tree_version = 42;
  map.addresses = {"unix:/tmp/a.sock", "unix:/tmp/a.sock.w1",
                   "unix:/tmp/a.sock.w2"};
  map.owner = {0, 1, 2, 0, 1};

  util::ByteWriter writer;
  map.encode(writer);
  const std::vector<std::uint8_t> bytes = std::move(writer).take();
  util::ByteReader reader(bytes.data(), bytes.size());
  const PartitionMap decoded = PartitionMap::decode(reader);
  EXPECT_EQ(decoded.workers, 3u);
  EXPECT_EQ(decoded.partitions, 5u);
  EXPECT_EQ(decoded.tree_version, 42u);
  EXPECT_EQ(decoded.addresses, map.addresses);
  EXPECT_EQ(decoded.owner, map.owner);
}

TEST(WorkerPartitionMap, DecodeRejectsOutOfRangeOwner) {
  const PartitionMap map =
      PartitionMap::round_robin({"unix:/tmp/x", "unix:/tmp/x.w1"}, 2);
  ASSERT_EQ(map.owner, (std::vector<std::uint32_t>{0, 1}));
  util::ByteWriter writer;
  map.encode(writer);
  std::vector<std::uint8_t> bytes = std::move(writer).take();
  bytes.back() = 7;  // owner of the last leaf: worker 7 of 2
  util::ByteReader reader(bytes.data(), bytes.size());
  EXPECT_THROW(PartitionMap::decode(reader), std::runtime_error);
}

/// Spin up an in-process LocateServer and speak to it from the test thread.
struct WorkerCluster {
  LocateServer server;
  SocketAddress base;

  explicit WorkerCluster(std::size_t workers, std::size_t partitions,
                         bool tcp = false)
      : server([&] {
          LocateServer::Config config;
          config.workers = workers;
          config.partitions = partitions;
          return config;
        }()) {
    std::string error;
    if (tcp) {
      SocketAddress::parse(
          "tcp:127.0.0.1:" + std::to_string(next_tcp_port()), base, &error);
    } else {
      base = unix_address(unique_socket_path("wk"));
    }
    started = server.start(base, &error);
    EXPECT_TRUE(started) << error;
  }

  bool started = false;
};

/// Register `agents` agents, locate each `rounds` times pipelined, verify
/// every reply. Returns false on any mismatch.
bool run_verified_load(LocateClient& client, std::uint64_t agents,
                       std::uint64_t rounds) {
  std::unordered_map<std::uint64_t, std::uint32_t> truth;
  std::vector<std::uint64_t> ids;
  for (std::uint64_t i = 1; i <= agents; ++i) {
    const std::uint64_t id = util::mix64(i);
    const auto node = static_cast<std::uint32_t>(i % 97 + 1);
    if (!client.send_update(id, node, 1)) return false;
    truth[id] = node;
    ids.push_back(id);
  }
  client.flush();
  if (!client.ping()) return false;  // fence: updates applied on all shards

  util::Rng rng(7);
  std::unordered_map<std::uint64_t, std::uint64_t> in_flight;
  std::uint64_t correlation = 1000;
  for (std::uint64_t r = 0; r < rounds; ++r) {
    in_flight.clear();
    for (std::uint64_t i = 0; i < agents; ++i) {
      const std::uint64_t id = ids[rng.next_below(ids.size())];
      in_flight[++correlation] = id;
      client.send_locate(id, correlation);
    }
    const auto replies = client.drain(in_flight.size(), 10000);
    if (replies.size() != in_flight.size()) return false;
    for (const auto& item : replies) {
      const auto expect = in_flight.find(item.correlation);
      if (expect == in_flight.end()) return false;
      if (item.reply.status != core::LocateStatus::kFound) return false;
      if (item.reply.node != truth[expect->second]) return false;
    }
  }
  return true;
}

TEST(WorkerCluster_, RoutedClientBalancesAcrossWorkers) {
  SKIP_WITHOUT_SOCKETS();
  WorkerCluster cluster(4, 8);
  ASSERT_TRUE(cluster.started);

  LocateClient client;
  std::string error;
  ASSERT_TRUE(client.connect(cluster.base, &error)) << error;
  EXPECT_EQ(client.worker_count(), 4u);
  EXPECT_EQ(client.partition_map().workers, 4u);
  EXPECT_EQ(client.partition_map().partitions, 8u);

  EXPECT_TRUE(run_verified_load(client, 500, 4));

  // Uniform ids must spread within 2× min..max across workers — the
  // acceptance bound for round-robin leaf ownership under mix64 ids.
  const auto& ops = client.per_worker_ops();
  ASSERT_EQ(ops.size(), 4u);
  std::uint64_t lo = ops[0], hi = ops[0];
  for (const std::uint64_t count : ops) {
    lo = std::min(lo, count);
    hi = std::max(hi, count);
  }
  EXPECT_GT(lo, 0u);
  EXPECT_LE(hi, 2 * lo) << "per-worker ops unbalanced";

  cluster.server.stop();
  // Every worker saw real traffic on its own transport.
  std::uint64_t workers_with_traffic = 0;
  for (const auto& stats : cluster.server.stats()) {
    if (stats.counters.locates > 0) ++workers_with_traffic;
  }
  EXPECT_EQ(workers_with_traffic, 4u);
}

/// What a raw connection read back for one correlation.
struct RawReply {
  FrameType type = FrameType::kError;
  bool applied = false;  ///< kUpdateAck
  core::LocateReply reply;  ///< kLocateReply
};

/// One agent id per leaf of the `leaves`-leaf directory tree, by leaf.
std::vector<std::uint64_t> one_agent_per_leaf(std::size_t leaves) {
  const hashtree::HashTree tree = LocateDirectory::make_tree(leaves);
  std::vector<std::uint64_t> agents(leaves, 0);
  for (std::uint64_t i = 1, found = 0; found < leaves; ++i) {
    const std::uint64_t id = util::mix64(i);
    std::uint64_t& slot = agents[tree.lookup_id(id).iagent - 1];
    if (slot == 0) {
      slot = id;
      ++found;
    }
  }
  return agents;
}

TEST(WorkerCluster_, OneOwnerPerLeafAcrossClients) {
  SKIP_WITHOUT_SOCKETS();
  constexpr std::size_t kLeaves = 8;
  const std::vector<std::uint64_t> agents = one_agent_per_leaf(kLeaves);

  for (const std::size_t workers : {2u, 4u}) {
    SCOPED_TRACE(workers);
    WorkerCluster cluster(workers, kLeaves);
    ASSERT_TRUE(cluster.started);
    LocateClient first;
    LocateClient second;
    std::string error;
    ASSERT_TRUE(first.connect(cluster.base, &error)) << error;
    ASSERT_TRUE(second.connect(cluster.base, &error)) << error;
    const PartitionMap& map = first.partition_map();
    ASSERT_EQ(map.owner.size(), kLeaves);

    // A raw connection to worker 0 that never asks for the map.
    SocketTransport raw;
    const SocketTransport::PeerId peer = raw.connect(cluster.base, &error);
    ASSERT_NE(peer, SocketTransport::kInvalidPeer) << error;
    std::map<std::uint64_t, RawReply> replies;
    raw.on_frame([&](SocketTransport::PeerId, const FrameView& frame) {
      RawReply& out = replies[frame.correlation];
      out.type = frame.type;
      util::ByteReader reader = frame.payload_reader();
      if (frame.type == FrameType::kUpdateAck) out.applied = reader.read_bool();
      if (frame.type == FrameType::kLocateReply) {
        out.reply.status = static_cast<core::LocateStatus>(reader.read_u8());
        out.reply.node = static_cast<NodeId>(reader.read_varint());
        out.reply.seq = reader.read_varint();
      }
    });
    const auto await_replies = [&](std::size_t count) {
      raw.flush(peer);
      for (int i = 0; i < 500 && replies.size() < count; ++i) {
        raw.poll_once(10);
      }
      return replies.size() == count;
    };

    // The raw connection's acked update lands only on worker 0's leaves.
    for (std::size_t leaf = 0; leaf < kLeaves; ++leaf) {
      raw.send(
          peer, FrameType::kUpdate, /*correlation=*/leaf + 1,
          [&](util::ByteWriter& w) {
            w.write_varint(agents[leaf]);
            w.write_varint(3);
            w.write_varint(1);
          },
          kFlagWantAck);
    }
    ASSERT_TRUE(await_replies(kLeaves));
    std::uint64_t refusals = 0;
    for (std::size_t leaf = 0; leaf < kLeaves; ++leaf) {
      SCOPED_TRACE(leaf);
      const RawReply& got = replies[leaf + 1];
      if (map.owner[leaf] == 0) {
        EXPECT_EQ(got.type, FrameType::kUpdateAck);
        EXPECT_TRUE(got.applied);
      } else {
        ++refusals;
        ASSERT_EQ(got.type, FrameType::kLocateReply);
        EXPECT_EQ(got.reply.status, core::LocateStatus::kNotResponsible);
        EXPECT_EQ(got.reply.node, kNoNode);
        EXPECT_EQ(got.reply.seq, 0u);
      }
    }
    EXPECT_EQ(refusals, kLeaves - kLeaves / workers);

    // The two routed clients write alternate leaves, and each reads what
    // the other wrote.
    for (std::size_t leaf = 0; leaf < kLeaves; ++leaf) {
      LocateClient& writer = leaf % 2 == 0 ? first : second;
      const auto node = static_cast<NodeId>(10 + leaf);
      EXPECT_TRUE(writer.update(agents[leaf], node, 2).value_or(false));
    }
    for (std::size_t leaf = 0; leaf < kLeaves; ++leaf) {
      SCOPED_TRACE(leaf);
      for (LocateClient* reader : {&first, &second}) {
        const auto reply = reader->locate(agents[leaf]);
        ASSERT_TRUE(reply.has_value());
        EXPECT_EQ(reply->status, core::LocateStatus::kFound);
        EXPECT_EQ(reply->node, 10 + leaf);
        EXPECT_EQ(reply->seq, 2u);
      }
    }

    // The raw connection reads the same binding on worker 0's leaves and
    // is refused on the rest.
    for (std::size_t leaf = 0; leaf < kLeaves; ++leaf) {
      raw.send(peer, FrameType::kLocate, /*correlation=*/100 + leaf,
               [&](util::ByteWriter& w) { w.write_varint(agents[leaf]); });
    }
    ASSERT_TRUE(await_replies(2 * kLeaves));
    for (std::size_t leaf = 0; leaf < kLeaves; ++leaf) {
      SCOPED_TRACE(leaf);
      const RawReply& got = replies[100 + leaf];
      ASSERT_EQ(got.type, FrameType::kLocateReply);
      if (map.owner[leaf] == 0) {
        EXPECT_EQ(got.reply.status, core::LocateStatus::kFound);
        EXPECT_EQ(got.reply.node, 10 + leaf);
        EXPECT_EQ(got.reply.seq, 2u);
      } else {
        ++refusals;
        EXPECT_EQ(got.reply.status, core::LocateStatus::kNotResponsible);
      }
    }

    // One binding per distinct agent across all workers, and every refusal
    // the raw connection saw was counted.
    cluster.server.stop();
    std::uint64_t bindings = 0;
    std::uint64_t not_responsible = 0;
    for (const LocateServer::WorkerStats& stats : cluster.server.stats()) {
      bindings += stats.bindings;
      not_responsible += stats.counters.not_responsible;
    }
    EXPECT_EQ(bindings, kLeaves);
    EXPECT_EQ(not_responsible, refusals);
  }
}

TEST(WorkerCluster_, ConnectThroughAnyWorkerAddress) {
  SKIP_WITHOUT_SOCKETS();
  constexpr std::size_t kLeaves = 8;
  const std::vector<std::uint64_t> agents = one_agent_per_leaf(kLeaves);

  for (const std::size_t workers : {2u, 4u}) {
    SCOPED_TRACE(workers);
    WorkerCluster cluster(workers, kLeaves);
    ASSERT_TRUE(cluster.started);
    SocketAddress last;
    std::string error;
    ASSERT_TRUE(
        LocateServer::worker_address(cluster.base, workers - 1, last, &error))
        << error;
    LocateClient through_base;
    LocateClient through_last;
    ASSERT_TRUE(through_base.connect(cluster.base, &error)) << error;
    ASSERT_TRUE(through_last.connect(last, &error)) << error;
    EXPECT_EQ(through_last.worker_count(), workers);

    // The client dialed through the last worker writes every leaf, and
    // both clients read back the same binding.
    for (std::size_t leaf = 0; leaf < kLeaves; ++leaf) {
      const auto node = static_cast<NodeId>(20 + leaf);
      EXPECT_TRUE(through_last.update(agents[leaf], node, 1).value_or(false));
    }
    for (std::size_t leaf = 0; leaf < kLeaves; ++leaf) {
      SCOPED_TRACE(leaf);
      for (LocateClient* reader : {&through_base, &through_last}) {
        const auto reply = reader->locate(agents[leaf]);
        ASSERT_TRUE(reply.has_value());
        EXPECT_EQ(reply->status, core::LocateStatus::kFound);
        EXPECT_EQ(reply->node, 20 + leaf);
        EXPECT_EQ(reply->seq, 1u);
      }
    }

    // Each client holds one connection per worker, and no op reached a
    // worker that does not own its leaf.
    cluster.server.stop();
    for (const LocateServer::WorkerStats& stats : cluster.server.stats()) {
      SCOPED_TRACE(stats.address);
      EXPECT_EQ(stats.transport.accepts, 2u);
      EXPECT_EQ(stats.counters.not_responsible, 0u);
    }
  }
}

TEST(WorkerCluster_, ConnectThroughUnlistedAddress) {
  SKIP_WITHOUT_SOCKETS();
  // A symlink reaches a worker through an address its map does not list.
  for (const std::size_t workers : {1u, 2u}) {
    SCOPED_TRACE(workers);
    WorkerCluster cluster(workers, 8);
    ASSERT_TRUE(cluster.started);
    const std::string alias = unique_socket_path("alias");
    std::error_code link_error;
    std::filesystem::create_symlink(cluster.base.path, alias, link_error);
    ASSERT_FALSE(link_error) << link_error.message();

    LocateClient client;
    std::string error;
    const bool connected = client.connect(unix_address(alias), &error);
    std::filesystem::remove(alias);
    if (workers == 1) {
      // One worker is the only one the connection can have reached.
      ASSERT_TRUE(connected) << error;
      EXPECT_EQ(client.worker_count(), 1u);
      EXPECT_TRUE(run_verified_load(client, 100, 1));
    } else {
      // Which of two workers it reached is unknown: refuse, naming it.
      EXPECT_FALSE(connected);
      EXPECT_NE(error.find("does not name unix:" + alias), std::string::npos)
          << error;
      EXPECT_EQ(client.worker_count(), 0u);
    }
  }
}

TEST(WorkerCluster_, WildcardTcpWorkerIsFoundByPort) {
  SKIP_WITHOUT_SOCKETS();
  // Workers bound to 0.0.0.0 advertise that host; a client that dials
  // worker 1 on loopback still finds it by its port.
  LocateServer::Config config;
  config.workers = 2;
  config.partitions = 8;
  LocateServer server(config);
  const std::uint16_t port = next_tcp_port();
  SocketAddress base;
  std::string error;
  ASSERT_TRUE(SocketAddress::parse("tcp:0.0.0.0:" + std::to_string(port),
                                   base, &error))
      << error;
  if (!server.start(base, &error)) GTEST_SKIP() << "tcp bind: " << error;

  SocketAddress worker1;
  ASSERT_TRUE(SocketAddress::parse(
      "tcp:127.0.0.1:" + std::to_string(port + 1), worker1, &error));
  LocateClient client;
  ASSERT_TRUE(client.connect(worker1, &error)) << error;
  EXPECT_EQ(client.worker_count(), 2u);
  EXPECT_TRUE(run_verified_load(client, 200, 1));
  server.stop();
  for (const LocateServer::WorkerStats& stats : server.stats()) {
    EXPECT_EQ(stats.counters.not_responsible, 0u);
  }
}

TEST(WorkerCluster_, SingleWorkerClusterDegradesToOneConnection) {
  SKIP_WITHOUT_SOCKETS();
  WorkerCluster cluster(1, 8);
  ASSERT_TRUE(cluster.started);

  LocateClient client;
  std::string error;
  ASSERT_TRUE(client.connect(cluster.base, &error)) << error;
  EXPECT_EQ(client.worker_count(), 1u);
  EXPECT_EQ(client.partition_map().workers, 1u);
  EXPECT_TRUE(run_verified_load(client, 200, 2));
}

TEST(WorkerCluster_, TcpClusterRoundTrips) {
  SKIP_WITHOUT_SOCKETS();
  WorkerCluster cluster(2, 4, /*tcp=*/true);
  if (!cluster.started) GTEST_SKIP() << "tcp bind unavailable";

  LocateClient client;
  std::string error;
  ASSERT_TRUE(client.connect(cluster.base, &error)) << error;
  EXPECT_EQ(client.worker_count(), 2u);
  EXPECT_TRUE(run_verified_load(client, 300, 2));
}

TEST(WorkerCluster_, DisconnectMidBatchFailsFastAndReturnsBuffers) {
  SKIP_WITHOUT_SOCKETS();
  auto cluster = std::make_unique<WorkerCluster>(2, 4);
  ASSERT_TRUE(cluster->started);

  LocateClient client;
  std::string error;
  ASSERT_TRUE(client.connect(cluster->base, &error)) << error;
  const std::size_t connections = client.worker_count();
  ASSERT_TRUE(run_verified_load(client, 100, 1));

  // Pipeline a batch, then kill the server before draining: drain must
  // return promptly (the disconnect breaks its wait), the client must go
  // sticky-unusable, and every pooled buffer must come back.
  for (std::uint64_t i = 0; i < 256; ++i) {
    client.send_locate(util::mix64(i + 1), 50000 + i);
  }
  cluster->server.stop();
  cluster.reset();  // listeners closed, connections dead

  const auto replies = client.drain(256 + 16, /*timeout_ms=*/10000);
  EXPECT_LE(replies.size(), 256u);  // never more than was sent
  EXPECT_FALSE(client.connected());
  EXPECT_FALSE(client.last_error().empty());

  // Sticky: every further op fails fast instead of hanging.
  EXPECT_FALSE(client.ping(100));
  EXPECT_EQ(client.locate(1, 100), std::nullopt);
  EXPECT_EQ(client.update(1, 2, 3, 100), std::nullopt);

  // Pool accounting: each connection slot's decoder holds exactly one
  // pooled buffer (drop_peer released the send queue, the open batch, and
  // the dead decoder's buffer). Anything above that is a leak.
  const util::BufferPool::Stats& pool = client.transport().pool().stats();
  EXPECT_EQ(pool.acquires - pool.releases, connections);
}

}  // namespace
}  // namespace agentloc::net
