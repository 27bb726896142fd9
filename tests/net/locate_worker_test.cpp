#include "net/locate_server.hpp"

#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
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
  // 105 bytes fit sun_path (108 with the NUL); 105 + ".w1" does not, and
  // bind would silently truncate it.
  std::string path = unique_socket_path("long");
  path.insert(5, 105 - path.size(), 'x');
  ASSERT_EQ(path.size(), 105u);
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
  PartitionMap map;
  map.workers = 2;
  map.partitions = 2;
  map.addresses = {"", "unix:/tmp/x.w1"};
  map.owner = {0, 1};
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
  ASSERT_TRUE(client.connect_cluster(cluster.base, &error)) << error;
  EXPECT_EQ(client.worker_count(), 4u);
  ASSERT_NE(client.partition_map(), nullptr);
  EXPECT_EQ(client.partition_map()->workers, 4u);
  EXPECT_EQ(client.partition_map()->partitions, 8u);

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

TEST(WorkerCluster_, LegacySingleConnectionClientStaysConsistent) {
  SKIP_WITHOUT_SOCKETS();
  WorkerCluster cluster(4, 8);
  ASSERT_TRUE(cluster.started);

  // A plain connect() talks only to worker 0 and never learns the map —
  // correctness must not depend on routing because each worker holds a
  // full directory.
  LocateClient client;
  std::string error;
  ASSERT_TRUE(client.connect(cluster.base, &error)) << error;
  EXPECT_EQ(client.worker_count(), 1u);
  EXPECT_EQ(client.partition_map(), nullptr);

  ASSERT_TRUE(client.update(42, 7, 1).value_or(false));
  const auto reply = client.locate(42);
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(reply->status, core::LocateStatus::kFound);
  EXPECT_EQ(reply->node, 7u);
}

TEST(WorkerCluster_, SingleWorkerClusterDegradesToOneConnection) {
  SKIP_WITHOUT_SOCKETS();
  WorkerCluster cluster(1, 8);
  ASSERT_TRUE(cluster.started);

  LocateClient client;
  std::string error;
  ASSERT_TRUE(client.connect_cluster(cluster.base, &error)) << error;
  EXPECT_EQ(client.worker_count(), 1u);
  ASSERT_NE(client.partition_map(), nullptr);
  EXPECT_EQ(client.partition_map()->workers, 1u);
  EXPECT_TRUE(run_verified_load(client, 200, 2));
}

TEST(WorkerCluster_, TcpClusterRoundTrips) {
  SKIP_WITHOUT_SOCKETS();
  WorkerCluster cluster(2, 4, /*tcp=*/true);
  if (!cluster.started) GTEST_SKIP() << "tcp bind unavailable";

  LocateClient client;
  std::string error;
  ASSERT_TRUE(client.connect_cluster(cluster.base, &error)) << error;
  EXPECT_EQ(client.worker_count(), 2u);
  EXPECT_TRUE(run_verified_load(client, 300, 2));
}

TEST(WorkerCluster_, DisconnectMidBatchFailsFastAndReturnsBuffers) {
  SKIP_WITHOUT_SOCKETS();
  auto cluster = std::make_unique<WorkerCluster>(2, 4);
  ASSERT_TRUE(cluster->started);

  LocateClient client;
  std::string error;
  ASSERT_TRUE(client.connect_cluster(cluster->base, &error)) << error;
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
