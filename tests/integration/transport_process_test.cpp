// End-to-end transport check with REAL process isolation: fork an
// `agentlocd` serving stack (a one-worker LocateServer over a unix socket),
// drive it from this process with a LocateClient, and verify locate answers
// against ground truth. This is the tier-1 guarantee that the wire format,
// the socket event loop, and the protocol survive an actual kernel
// boundary — not just in-process socketpairs. Skips cleanly where the
// sandbox forbids sockets.

#include <gtest/gtest.h>

#include <string>
#include <unordered_map>
#include <vector>

#include "forked_locate_server.hpp"
#include "util/rng.hpp"

namespace agentloc::net {
namespace {

class TransportProcessTest : public testing::ForkedLocateServer {};

TEST_F(TransportProcessTest, LocateRoundTripsAcrossProcessBoundary) {
  LocateClient client;
  std::string error;
  ASSERT_TRUE(connect_client(client, &error)) << error;
  EXPECT_EQ(client.server_partitions(), 8u);

  // Register a population one-way, fence with a ping, then verify every
  // binding with pipelined locates.
  constexpr std::uint64_t kAgents = 500;
  std::unordered_map<std::uint64_t, NodeId> truth;
  std::vector<std::uint64_t> ids;
  for (std::uint64_t i = 0; i < kAgents; ++i) {
    const std::uint64_t id = util::mix64(i + 1);
    const NodeId node = static_cast<NodeId>(i % 97 + 1);
    ASSERT_TRUE(client.send_update(id, node, /*seq=*/1));
    truth[id] = node;
    ids.push_back(id);
  }
  ASSERT_TRUE(client.ping()) << "ping fence after updates";

  for (std::uint64_t i = 0; i < ids.size(); ++i) {
    client.send_locate(ids[i], /*correlation=*/i + 1);
  }
  const auto replies = client.drain(ids.size(), /*timeout_ms=*/10000);
  ASSERT_EQ(replies.size(), ids.size());
  std::size_t mismatches = 0;
  for (const auto& entry : replies) {
    ASSERT_GE(entry.correlation, 1u);
    ASSERT_LE(entry.correlation, ids.size());
    const std::uint64_t id = ids[entry.correlation - 1];
    if (entry.reply.status != core::LocateStatus::kFound ||
        entry.reply.node != truth.at(id)) {
      ++mismatches;
    }
  }
  EXPECT_EQ(mismatches, 0u);
}

TEST_F(TransportProcessTest, MovesAndDeregistersAreOrdered) {
  LocateClient client;
  std::string error;
  ASSERT_TRUE(connect_client(client, &error)) << error;

  const std::uint64_t id = util::mix64(4242);
  // A whole lifetime pipelined on one connection, fenced once at the end:
  // register, move thrice, deregister, re-register newer.
  ASSERT_TRUE(client.send_update(id, 1, 1));
  ASSERT_TRUE(client.send_update(id, 2, 2));
  ASSERT_TRUE(client.send_update(id, 3, 3));
  ASSERT_TRUE(client.send_update(id, 4, 4));
  ASSERT_TRUE(client.send_deregister(id, 5));
  ASSERT_TRUE(client.send_update(id, 9, 6));
  ASSERT_TRUE(client.ping());

  const auto reply = client.locate(id);
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(reply->status, core::LocateStatus::kFound);
  EXPECT_EQ(reply->node, 9u);
  EXPECT_EQ(reply->seq, 6u);

  // And a deregister that is NOT followed by a newer update really hides.
  const auto applied = client.update(id, 9, 7);
  ASSERT_TRUE(applied.has_value() && *applied);
  ASSERT_TRUE(client.send_deregister(id, 8));
  ASSERT_TRUE(client.ping());
  const auto gone = client.locate(id);
  ASSERT_TRUE(gone.has_value());
  EXPECT_EQ(gone->status, core::LocateStatus::kUnknown);
}

TEST_F(TransportProcessTest, TwoClientsShareOneDirectory) {
  LocateClient writer;
  LocateClient reader;
  std::string error;
  ASSERT_TRUE(connect_client(writer, &error)) << error;
  ASSERT_TRUE(connect_client(reader, &error)) << error;

  const std::uint64_t id = util::mix64(777);
  const auto applied = writer.update(id, 33, 1);
  ASSERT_TRUE(applied.has_value() && *applied);
  const auto reply = reader.locate(id);
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(reply->status, core::LocateStatus::kFound);
  EXPECT_EQ(reply->node, 33u);
}

}  // namespace
}  // namespace agentloc::net
