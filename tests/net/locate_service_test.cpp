#include "net/locate_service.hpp"

#include <gtest/gtest.h>

#include <unistd.h>

#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "net/locate_server.hpp"
#include "util/rng.hpp"

namespace agentloc::net {
namespace {

TEST(LocateDirectory, NewestSeqWins) {
  LocateDirectory directory(4);
  EXPECT_TRUE(directory.apply_update(77, /*node=*/3, /*seq=*/5));
  EXPECT_FALSE(directory.apply_update(77, /*node=*/9, /*seq=*/4))
      << "stale update must not overwrite";
  EXPECT_FALSE(directory.apply_update(77, /*node=*/9, /*seq=*/5))
      << "equal seq is stale too";
  core::LocateReply reply = directory.locate(77);
  EXPECT_EQ(reply.status, core::LocateStatus::kFound);
  EXPECT_EQ(reply.node, 3u);
  EXPECT_EQ(reply.seq, 5u);

  EXPECT_TRUE(directory.apply_update(77, /*node=*/9, /*seq=*/6));
  reply = directory.locate(77);
  EXPECT_EQ(reply.node, 9u);
  EXPECT_EQ(reply.seq, 6u);
}

TEST(LocateDirectory, DeregisterLeavesSeqTombstone) {
  LocateDirectory directory(4);
  ASSERT_TRUE(directory.apply_update(42, 1, 10));
  EXPECT_TRUE(directory.deregister_agent(42, 11));
  EXPECT_EQ(directory.locate(42).status, core::LocateStatus::kUnknown);
  // A stale in-flight update cannot resurrect the binding...
  EXPECT_FALSE(directory.apply_update(42, 2, 10));
  EXPECT_EQ(directory.locate(42).status, core::LocateStatus::kUnknown);
  // ...but a genuinely newer one can.
  EXPECT_TRUE(directory.apply_update(42, 2, 12));
  EXPECT_EQ(directory.locate(42).status, core::LocateStatus::kFound);
}

TEST(LocateDirectory, SeqZeroTombstoneRefusesEqualSeq) {
  // The tombstone rule must not special-case seq 0: a deregister at seq 0
  // refuses a later update at seq 0, exactly as it does at any other seq.
  for (const std::uint64_t seq : {0u, 5u}) {
    LocateDirectory directory(4);
    ASSERT_TRUE(directory.apply_update(42, 1, seq));
    ASSERT_TRUE(directory.deregister_agent(42, seq));
    EXPECT_FALSE(directory.apply_update(42, 2, seq)) << seq;
    EXPECT_EQ(directory.locate(42).status, core::LocateStatus::kUnknown)
        << seq;
    EXPECT_TRUE(directory.apply_update(42, 2, seq + 1)) << seq;
    EXPECT_EQ(directory.locate(42).node, 2u) << seq;
  }
}

TEST(LocateDirectory, DeregisterBeforeFirstUpdateRefusesIt) {
  LocateDirectory directory(4);
  EXPECT_FALSE(directory.deregister_agent(42, 3));  // nothing live yet
  EXPECT_FALSE(directory.apply_update(42, 1, 2));
  EXPECT_EQ(directory.locate(42).status, core::LocateStatus::kUnknown);
  EXPECT_EQ(directory.size(), 0u);
}

TEST(LocateDirectory, UnknownAgentNotFound) {
  LocateDirectory directory(4);
  EXPECT_EQ(directory.locate(12345).status, core::LocateStatus::kUnknown);
  EXPECT_FALSE(directory.deregister_agent(12345, 1));
}

TEST(LocateDirectory, PartitionRoutingMatchesHashTree) {
  // partition_of must agree with the pre-split HashTree for any id, and the
  // pre-split must produce exactly the requested number of leaves.
  for (std::size_t partitions : {1u, 2u, 4u, 7u, 16u}) {
    LocateDirectory directory(partitions);
    EXPECT_EQ(directory.tree().leaf_count(), partitions);
    EXPECT_EQ(directory.partition_count(), partitions);
    util::Rng rng(17);
    for (int i = 0; i < 200; ++i) {
      const std::uint64_t id = rng.next();
      const std::size_t partition = directory.partition_of(id);
      EXPECT_LT(partition, partitions);
      EXPECT_EQ(partition, directory.tree().lookup_id(id).iagent - 1);
    }
  }
}

TEST(LocateDirectory, BindingsLandInTheirHashPartition) {
  LocateDirectory directory(8);
  util::Rng rng(3);
  for (int i = 0; i < 500; ++i) {
    const std::uint64_t id = rng.next();
    ASSERT_TRUE(directory.apply_update(id, i % 50, 1));
    EXPECT_EQ(directory.locate(id).status, core::LocateStatus::kFound);
  }
  EXPECT_EQ(directory.size(), 500u);
}

/// Client/server over a real UDS in one process, on the stack `agentlocd`
/// runs by default: a one-worker `LocateServer`, serving on its own thread
/// while the client's sync waits poll the client side. Server-side state is
/// only inspected after `stop()`, from the worker's exit snapshot.
class LocateServiceLoop : public ::testing::Test {
 protected:
  void SetUp() override {
    if (!SocketTransport::sockets_available()) {
      GTEST_SKIP() << "sandbox cannot create sockets";
    }
    address_.kind = SocketAddress::Kind::kUnix;
    address_.path = "/tmp/agentloc-ls-" + std::to_string(::getpid()) + ".sock";
    std::string error;
    ASSERT_TRUE(server_.start(address_, &error)) << error;
    ASSERT_TRUE(client_.connect(address_, &error)) << error;
  }

  /// Join the worker (it unlinks its socket) and return its snapshot.
  const LocateServer::WorkerStats& stop() {
    server_.stop();
    return server_.stats()[0];
  }

  SocketAddress address_;
  LocateServer server_{LocateServer::Config{/*workers=*/1, /*partitions=*/4}};
  LocateClient client_;
};

TEST_F(LocateServiceLoop, HandshakeReportsPartitions) {
  EXPECT_TRUE(client_.connected());
  EXPECT_EQ(client_.server_partitions(), 4u);
}

TEST_F(LocateServiceLoop, UpdateThenLocateRoundTrip) {
  const auto applied = client_.update(1001, /*node=*/7, /*seq=*/1);
  ASSERT_TRUE(applied.has_value());
  EXPECT_TRUE(*applied);
  const auto reply = client_.locate(1001);
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(reply->status, core::LocateStatus::kFound);
  EXPECT_EQ(reply->node, 7u);
  EXPECT_EQ(reply->seq, 1u);
  const LocateServer::WorkerStats& stats = stop();
  EXPECT_EQ(stats.counters.updates_applied, 1u);
  EXPECT_EQ(stats.counters.locates_found, 1u);
}

TEST_F(LocateServiceLoop, LocateMissReportsUnknown) {
  const auto reply = client_.locate(999999);
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(reply->status, core::LocateStatus::kUnknown);
  const LocateServer::WorkerStats& stats = stop();
  EXPECT_EQ(stats.counters.locates, 1u);
  EXPECT_EQ(stats.counters.locates_found, 0u);
}

TEST_F(LocateServiceLoop, StaleUpdateIsAckedUnapplied) {
  const auto first = client_.update(55, 1, 5);
  ASSERT_TRUE(first.has_value() && *first);
  const auto stale = client_.update(55, 2, 4);
  ASSERT_TRUE(stale.has_value());
  EXPECT_FALSE(*stale) << "stale seq must report unapplied";
  const auto reply = client_.locate(55);
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(reply->node, 1u);
  const LocateServer::WorkerStats& stats = stop();
  EXPECT_EQ(stats.counters.updates, 2u);
  EXPECT_EQ(stats.counters.updates_applied, 1u);
}

TEST_F(LocateServiceLoop, DeregisterThenLocateMisses) {
  const auto applied = client_.update(88, 3, 1);
  ASSERT_TRUE(applied.has_value() && *applied);
  ASSERT_TRUE(client_.send_deregister(88, 2));
  ASSERT_TRUE(client_.ping());  // fence: deregister precedes ping in order
  const auto reply = client_.locate(88);
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(reply->status, core::LocateStatus::kUnknown);
  EXPECT_EQ(stop().counters.deregisters, 1u);
}

TEST_F(LocateServiceLoop, AgentIdZeroIsRefused) {
  // Id 0 is the directory tables' empty key, so an op naming it off the
  // wire must be refused before it reaches a table.
  const auto applied = client_.update(/*agent=*/0, /*node=*/3, /*seq=*/1);
  ASSERT_TRUE(applied.has_value());
  EXPECT_FALSE(*applied);

  // kDeregister has no synchronous client call; ask for its ack directly.
  SocketTransport probe;
  std::string error;
  const auto peer = probe.connect(address_, &error);
  ASSERT_NE(peer, SocketTransport::kInvalidPeer) << error;
  std::optional<bool> deregistered;
  probe.on_frame([&](SocketTransport::PeerId, const FrameView& frame) {
    if (frame.type != FrameType::kUpdateAck) return;
    util::ByteReader reader = frame.payload_reader();
    deregistered = reader.read_bool();
  });
  probe.send(
      peer, FrameType::kDeregister, /*correlation=*/1,
      [](util::ByteWriter& w) {
        w.write_varint(0);
        w.write_varint(2);
      },
      kFlagWantAck);
  probe.flush(peer);
  for (int i = 0; i < 500 && !deregistered.has_value(); ++i) {
    probe.poll_once(10);
  }
  ASSERT_TRUE(deregistered.has_value());
  EXPECT_FALSE(*deregistered);

  const auto reply = client_.locate(0);
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(reply->status, core::LocateStatus::kUnknown);
  const LocateServer::WorkerStats& stats = stop();
  EXPECT_EQ(stats.counters.updates_applied, 0u);
  EXPECT_EQ(stats.bindings, 0u);
}

TEST_F(LocateServiceLoop, OneWayUpdatesWithPingFence) {
  std::unordered_map<std::uint64_t, NodeId> truth;
  for (std::uint64_t i = 0; i < 200; ++i) {
    const std::uint64_t id = util::mix64(i);
    const NodeId node = static_cast<NodeId>(i % 31 + 1);
    ASSERT_TRUE(client_.send_update(id, node, 1));
    truth[id] = node;
  }
  ASSERT_TRUE(client_.ping());
  for (const auto& [id, node] : truth) {
    const auto reply = client_.locate(id);
    ASSERT_TRUE(reply.has_value()) << id;
    ASSERT_EQ(reply->status, core::LocateStatus::kFound) << id;
    EXPECT_EQ(reply->node, node);
  }
  const LocateServer::WorkerStats& stats = stop();
  EXPECT_EQ(stats.counters.updates_applied, 200u);
  EXPECT_EQ(stats.bindings, 200u);
}

TEST_F(LocateServiceLoop, PipelinedLocatesMatchGroundTruth) {
  std::vector<std::uint64_t> ids;
  for (std::uint64_t i = 0; i < 64; ++i) {
    const std::uint64_t id = util::mix64(1000 + i);
    ASSERT_TRUE(client_.send_update(id, static_cast<NodeId>(i + 1), 1));
    ids.push_back(id);
  }
  ASSERT_TRUE(client_.ping());
  for (std::uint64_t i = 0; i < ids.size(); ++i) {
    client_.send_locate(ids[i], /*correlation=*/i + 1);
  }
  std::unordered_map<std::uint64_t, core::LocateReply> replies;
  const auto batch = client_.drain(ids.size(), /*timeout_ms=*/5000);
  for (const auto& entry : batch) replies[entry.correlation] = entry.reply;
  ASSERT_EQ(replies.size(), ids.size());
  for (std::uint64_t i = 0; i < ids.size(); ++i) {
    const auto& reply = replies.at(i + 1);
    EXPECT_EQ(reply.status, core::LocateStatus::kFound);
    EXPECT_EQ(reply.node, i + 1);
  }
}

TEST_F(LocateServiceLoop, MalformedPayloadGetsErrorNotCrash) {
  // A kLocate frame with an empty payload is invalid: the service must
  // answer kError and keep serving the well-behaved client.
  bool got_error = false;
  SocketTransport probe;
  std::string error;
  const auto peer = probe.connect(address_, &error);
  ASSERT_NE(peer, SocketTransport::kInvalidPeer) << error;
  probe.on_frame([&](SocketTransport::PeerId, const FrameView& frame) {
    if (frame.type == FrameType::kError) got_error = true;
  });
  probe.send(peer, FrameType::kLocate, 1, nullptr);
  probe.flush(peer);
  for (int i = 0; i < 500 && !got_error; ++i) {
    probe.poll_once(10);
  }
  EXPECT_TRUE(got_error);
  // The original client still works.
  EXPECT_TRUE(client_.ping());
  EXPECT_EQ(stop().counters.protocol_errors, 1u);
}

}  // namespace
}  // namespace agentloc::net
