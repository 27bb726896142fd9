// Differential test of the one binding rule (DESIGN.md §6). A seeded stream
// of register, update, deregister and re-register ops — shuffled, with 10%
// duplicated and 10% dropped — goes unchanged to every place that keeps
// bindings: a bare core::LocationTable, net::LocateDirectory, a simulated
// IAgent (alone, or handing its whole table to a second IAgent halfway
// through by a split transfer or by retirement), and a forked LocateServer
// of one and of two workers over a unix socket. Each must end where an
// independent reference ends: per agent, the highest-seq delivered op wins,
// and a deregister wins a seq tie.

#include <gtest/gtest.h>

#include <functional>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "../core/test_cluster.hpp"
#include "core/iagent.hpp"
#include "core/tracker_table.hpp"
#include "forked_locate_server.hpp"
#include "net/locate_service.hpp"
#include "util/rng.hpp"

namespace agentloc {
namespace {

using core::LocateReply;
using core::LocateStatus;

constexpr std::uint64_t kSeeds = 24;
constexpr std::uint64_t kAgents = 64;

enum class OpKind { kRegister, kUpdate, kDeregister };

struct Op {
  OpKind kind = OpKind::kUpdate;
  platform::AgentId agent = platform::kNoAgent;
  net::NodeId node = net::kNoNode;  ///< kNoNode for a deregister
  std::uint64_t seq = 0;
};

struct Stream {
  std::vector<platform::AgentId> agents;
  std::vector<Op> delivered;
};

/// Each agent lives one to three registrations, each followed by up to four
/// moves and, except possibly the last, a deregister. Seqs never restart; a
/// deregister takes the next seq or, half the time, ties the last report's.
/// The ops are then shuffled, 10% are dropped and 10% delivered twice.
Stream make_stream(std::uint64_t seed) {
  util::Rng rng(seed);
  const auto node = [&] {
    return static_cast<net::NodeId>(rng.next_below(16));
  };
  Stream stream;
  std::vector<Op> ops;
  for (std::uint64_t i = 0; i < kAgents; ++i) {
    const platform::AgentId agent = util::mix64(seed * kAgents + i + 1);
    stream.agents.push_back(agent);
    std::uint64_t seq = 0;
    const std::uint64_t lives = 1 + rng.next_below(3);
    for (std::uint64_t life = 0; life < lives; ++life) {
      ops.push_back({OpKind::kRegister, agent, node(), ++seq});
      for (std::uint64_t move = rng.next_below(5); move > 0; --move) {
        ops.push_back({OpKind::kUpdate, agent, node(), ++seq});
      }
      if (life + 1 < lives || rng.chance(0.5)) {
        const std::uint64_t at = rng.chance(0.5) ? seq : ++seq;
        ops.push_back({OpKind::kDeregister, agent, net::kNoNode, at});
      }
    }
  }
  rng.shuffle(ops);
  for (const Op& op : ops) {
    if (rng.chance(0.1)) continue;
    stream.delivered.push_back(op);
    if (rng.chance(0.1)) stream.delivered.push_back(op);
  }
  rng.shuffle(stream.delivered);
  return stream;
}

/// The reference, written from the rule alone.
std::map<platform::AgentId, LocateReply> reference(const Stream& stream) {
  std::map<platform::AgentId, Op> winner;
  for (const Op& op : stream.delivered) {
    const auto [it, fresh] = winner.try_emplace(op.agent, op);
    if (fresh) continue;
    if (op.seq > it->second.seq ||
        (op.seq == it->second.seq && op.kind == OpKind::kDeregister)) {
      it->second = op;
    }
  }
  std::map<platform::AgentId, LocateReply> expected;
  for (const platform::AgentId agent : stream.agents) {
    LocateReply& reply = expected[agent];
    reply.status = LocateStatus::kUnknown;
    const auto it = winner.find(agent);
    if (it == winner.end() || it->second.kind == OpKind::kDeregister) continue;
    reply.status = LocateStatus::kFound;
    reply.node = it->second.node;
    reply.seq = it->second.seq;
  }
  return expected;
}

/// `agent`'s delivered ops in delivery order, for failure messages.
std::string history(const Stream& stream, platform::AgentId agent) {
  std::string out = "agent " + std::to_string(agent) + ":";
  for (const Op& op : stream.delivered) {
    if (op.agent != agent) continue;
    out += op.kind == OpKind::kRegister ? " register("
           : op.kind == OpKind::kUpdate ? " update("
                                        : " deregister(";
    out += std::to_string(op.seq) + ")";
  }
  return out;
}

/// Status of every agent; node and seq of every found one.
void expect_matches_reference(
    const Stream& stream,
    const std::function<LocateReply(platform::AgentId)>& lookup) {
  for (const auto& [agent, expected] : reference(stream)) {
    const LocateReply actual = lookup(agent);
    ASSERT_EQ(actual.status, expected.status) << history(stream, agent);
    if (expected.status != LocateStatus::kFound) continue;
    EXPECT_EQ(actual.node, expected.node) << history(stream, agent);
    EXPECT_EQ(actual.seq, expected.seq) << history(stream, agent);
  }
}

LocateReply reply_of(const std::optional<core::LocationEntry>& entry) {
  LocateReply reply;
  reply.status = entry ? LocateStatus::kFound : LocateStatus::kUnknown;
  if (entry) {
    reply.node = entry->node;
    reply.seq = entry->seq;
  }
  return reply;
}

TEST(BindingRule, LocationTableMatchesReference) {
  for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
    SCOPED_TRACE(seed);
    const Stream stream = make_stream(seed);
    core::LocationTable table;
    for (const Op& op : stream.delivered) {
      if (op.kind == OpKind::kDeregister) {
        table.remove(op.agent, op.seq);
      } else {
        table.apply(core::LocationEntry{op.agent, op.node, op.seq});
      }
    }
    expect_matches_reference(stream, [&](platform::AgentId agent) {
      return reply_of(table.find(agent));
    });
  }
}

TEST(BindingRule, LocateDirectoryMatchesReference) {
  for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
    SCOPED_TRACE(seed);
    const Stream stream = make_stream(seed);
    net::LocateDirectory directory(8);
    for (const Op& op : stream.delivered) {
      if (op.kind == OpKind::kDeregister) {
        directory.deregister_agent(op.agent, op.seq);
      } else {
        directory.apply_update(op.agent, op.node, op.seq);
      }
    }
    expect_matches_reference(stream, [&](platform::AgentId agent) {
      return directory.locate(agent);
    });
  }
}

// --- the simulated IAgent ---------------------------------------------------

enum class Handoff { kNone, kTransfer, kRetire };

/// Delivers the stream to a simulated IAgent as Register (RPC), Update and
/// Deregister messages. With a handoff, the first IAgent hands its whole
/// table to a second one after the first half of the stream has landed, and
/// the second half goes to the second IAgent while the handoff is in flight.
/// Returns the answering IAgent's locate reply for every agent.
std::map<platform::AgentId, LocateReply> through_iagents(const Stream& stream,
                                                         Handoff handoff) {
  core::testing::TestCluster cluster(4);
  core::MechanismConfig config;
  config.t_max = 1e9;  // no split or merge requests of their own
  config.t_min = 0.0;
  auto& coordinator = cluster.system.create<core::testing::ScriptAgent>(0);
  auto& client = cluster.system.create<core::testing::ScriptAgent>(1);
  const platform::AgentAddress hagent{0, coordinator.id()};
  const platform::AgentAddress first{
      2, cluster.system.create<core::IAgent>(2, config, hagent).id()};
  const platform::AgentAddress second{
      3, cluster.system.create<core::IAgent>(3, config, hagent).id()};
  cluster.run_for(sim::SimTime::millis(1));

  const auto deliver = [&](const Op& op, platform::AgentAddress to) {
    const core::LocationEntry entry{op.agent, op.node, op.seq};
    switch (op.kind) {
      case OpKind::kRegister:
        cluster.system.request(client.id(), to, core::RegisterRequest{entry},
                               core::RegisterRequest::kWireBytes,
                               [](platform::RpcResult) {});
        break;
      case OpKind::kUpdate:
        cluster.system.send(client.id(), to, core::UpdateRequest{entry},
                            core::UpdateRequest::kWireBytes);
        break;
      case OpKind::kDeregister:
        cluster.system.send(client.id(), to,
                            core::DeregisterRequest{op.agent, op.seq},
                            core::DeregisterRequest::kWireBytes);
        break;
    }
  };

  const std::size_t half = handoff == Handoff::kNone
                               ? stream.delivered.size()
                               : stream.delivered.size() / 2;
  for (std::size_t i = 0; i < half; ++i) deliver(stream.delivered[i], first);
  cluster.run_for(sim::SimTime::seconds(1));

  platform::AgentAddress answering = first;
  if (handoff == Handoff::kTransfer) {
    // A split that leaves `first` responsible for nothing (conflicting bits)
    // and moves every id to `second`.
    core::ResponsibilityUpdate update;
    update.version = 1;
    update.predicate.valid_bits = {{0, true}, {0, false}};
    update.has_transfer = true;
    update.transfer_to = second;
    const std::size_t bytes = update.wire_bytes();
    cluster.system.send(coordinator.id(), first, std::move(update), bytes);
    answering = second;
  } else if (handoff == Handoff::kRetire) {
    core::RetireOrder order;
    order.version = 1;
    order.routes.push_back({core::Predicate{}, second});
    const std::size_t bytes = order.wire_bytes();
    cluster.system.send(coordinator.id(), first, std::move(order), bytes);
    answering = second;
  }
  for (std::size_t i = half; i < stream.delivered.size(); ++i) {
    deliver(stream.delivered[i], answering);
  }
  cluster.run_for(sim::SimTime::seconds(1));
  if (handoff == Handoff::kRetire) {
    EXPECT_FALSE(cluster.system.exists(first.agent)) << "retirement stalled";
  }

  std::map<platform::AgentId, LocateReply> replies;
  for (const platform::AgentId agent : stream.agents) {
    cluster.system.request(
        client.id(), answering, core::LocateRequest{agent},
        core::LocateRequest::kWireBytes,
        [&replies, agent](platform::RpcResult result) {
          if (const auto* reply = result.reply.body_as<LocateReply>()) {
            replies[agent] = *reply;
          }
        });
  }
  cluster.run_for(sim::SimTime::seconds(1));
  return replies;
}

void expect_iagents_match_reference(Handoff handoff) {
  for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
    SCOPED_TRACE(seed);
    const Stream stream = make_stream(seed);
    const auto replies = through_iagents(stream, handoff);
    ASSERT_EQ(replies.size(), stream.agents.size()) << "locates unanswered";
    expect_matches_reference(stream, [&](platform::AgentId agent) {
      return replies.at(agent);
    });
  }
}

TEST(BindingRule, IAgentMatchesReference) {
  expect_iagents_match_reference(Handoff::kNone);
}

TEST(BindingRule, SplitTransferCarriesTombstones) {
  expect_iagents_match_reference(Handoff::kTransfer);
}

TEST(BindingRule, RetirementCarriesTombstones) {
  expect_iagents_match_reference(Handoff::kRetire);
}

// --- agentlocd over a unix socket --------------------------------------------

class BindingRuleWire : public net::testing::ForkedLocateServer {};

TEST_F(BindingRuleWire, LocateServiceMatchesReference) {
  // On two workers the client routes each agent to its leaf's owner, and
  // each worker holds only its own leaves' bindings.
  for (const std::size_t workers : {1u, 2u}) {
    SCOPED_TRACE(workers);
    start_server(workers);
    net::LocateClient client;
    std::string error;
    ASSERT_TRUE(connect_client(client, &error)) << error;
    ASSERT_EQ(client.worker_count(), workers);
    // One server for every seed: the seeds' agent ids are disjoint.
    for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
      SCOPED_TRACE(seed);
      const Stream stream = make_stream(seed);
      for (const Op& op : stream.delivered) {
        if (op.kind == OpKind::kDeregister) {
          ASSERT_TRUE(client.send_deregister(op.agent, op.seq));
        } else {
          ASSERT_TRUE(client.send_update(op.agent, op.node, op.seq));
        }
      }
      ASSERT_TRUE(client.ping()) << "ping fence after the stream";

      for (std::size_t i = 0; i < stream.agents.size(); ++i) {
        client.send_locate(stream.agents[i], /*correlation=*/i + 1);
      }
      std::map<platform::AgentId, LocateReply> replies;
      for (const auto& entry :
           client.drain(stream.agents.size(), /*timeout_ms=*/10000)) {
        ASSERT_GE(entry.correlation, 1u);
        ASSERT_LE(entry.correlation, stream.agents.size());
        replies[stream.agents[entry.correlation - 1]] = entry.reply;
      }
      ASSERT_EQ(replies.size(), stream.agents.size()) << "locates unanswered";
      expect_matches_reference(stream, [&](platform::AgentId agent) {
        return replies.at(agent);
      });
    }
  }
}

TEST_F(BindingRuleWire, UpdateToNoNodeIsRefused) {
  // The table reads node kNoNode as a tombstone, so the directory refuses a
  // kUpdate that carries it, over nothing and over a live binding alike.
  net::LocateClient client;
  std::string error;
  ASSERT_TRUE(connect_client(client, &error)) << error;
  const platform::AgentId fresh = util::mix64(9001);
  const platform::AgentId bound = util::mix64(9002);

  const auto refused = client.update(fresh, net::kNoNode, 1);
  ASSERT_TRUE(refused.has_value());
  EXPECT_FALSE(*refused);
  const auto unknown = client.locate(fresh);
  ASSERT_TRUE(unknown.has_value());
  EXPECT_EQ(unknown->status, LocateStatus::kUnknown);

  const auto applied = client.update(bound, 5, 1);
  ASSERT_TRUE(applied.has_value() && *applied);
  const auto still_refused = client.update(bound, net::kNoNode, 2);
  ASSERT_TRUE(still_refused.has_value());
  EXPECT_FALSE(*still_refused);
  const auto kept = client.locate(bound);
  ASSERT_TRUE(kept.has_value());
  EXPECT_EQ(kept->status, LocateStatus::kFound);
  EXPECT_EQ(kept->node, 5u);
  EXPECT_EQ(kept->seq, 1u);
}

}  // namespace
}  // namespace agentloc
