#include "core/iagent.hpp"

#include <gtest/gtest.h>

#include <optional>

#include "test_cluster.hpp"

namespace agentloc::core {
namespace {

using testing::AckingScriptAgent;
using testing::ScriptAgent;
using testing::TestCluster;

class IAgentTest : public ::testing::Test {
 protected:
  IAgentTest() : cluster_(6) {
    config_.rehash_cooldown = sim::SimTime::millis(400);
    config_.t_max = 100.0;
    config_.t_min = 1.0;

    hagent_stub_ = &cluster_.system.create<ScriptAgent>(0);
    client_ = &cluster_.system.create<ScriptAgent>(2);
    cluster_.simulator.run_until(sim::SimTime::millis(1));
    iagent_ = &cluster_.system.create<IAgent>(
        1, config_, platform::AgentAddress{0, hagent_stub_->id()});
    cluster_.run_for(sim::SimTime::millis(1));
  }

  platform::AgentAddress iagent_address() const {
    return platform::AgentAddress{1, iagent_->id()};
  }

  /// RPC from the client to the IAgent; returns the result once settled.
  platform::RpcResult rpc(util::PayloadBox body, std::size_t bytes) {
    std::optional<platform::RpcResult> settled;
    cluster_.system.request(client_->id(), iagent_address(), std::move(body),
                            bytes,
                            [&](platform::RpcResult r) { settled = r; });
    cluster_.run_for(sim::SimTime::seconds(1));
    EXPECT_TRUE(settled.has_value());
    return settled.value_or(platform::RpcResult{});
  }

  LocateReply locate(platform::AgentId target) {
    const auto result = rpc(LocateRequest{target}, LocateRequest::kWireBytes);
    const auto* reply = result.reply.body_as<LocateReply>();
    EXPECT_NE(reply, nullptr);
    return reply != nullptr ? *reply : LocateReply{};
  }

  void send_update(platform::AgentId agent, net::NodeId node,
                   std::uint64_t seq) {
    cluster_.system.send(client_->id(), iagent_address(),
                         UpdateRequest{LocationEntry{agent, node, seq}},
                         UpdateRequest::kWireBytes);
    cluster_.run_for(sim::SimTime::millis(20));
  }

  void grant(Predicate predicate, std::uint64_t version,
             std::optional<platform::AgentAddress> transfer_to = std::nullopt,
             Predicate transfer_predicate = {}) {
    ResponsibilityUpdate update;
    update.version = version;
    update.predicate = std::move(predicate);
    if (transfer_to) {
      update.has_transfer = true;
      update.transfer_to = *transfer_to;
      update.transfer_predicate = std::move(transfer_predicate);
    }
    const std::size_t bytes = update.wire_bytes();
    cluster_.system.send(hagent_stub_->id(), iagent_address(),
                         std::move(update), bytes);
    cluster_.run_for(sim::SimTime::millis(20));
  }

  static Predicate top_bit(bool value) {
    Predicate predicate;
    predicate.valid_bits.emplace_back(0, value);
    predicate.compile();
    return predicate;
  }

  TestCluster cluster_;
  MechanismConfig config_;
  ScriptAgent* hagent_stub_ = nullptr;
  ScriptAgent* client_ = nullptr;
  IAgent* iagent_ = nullptr;
};

constexpr platform::AgentId kHighId = 0x8000000000000123ull;
constexpr platform::AgentId kLowId = 0x0000000000000456ull;

TEST_F(IAgentTest, RegisterThenLocate) {
  const auto result =
      rpc(RegisterRequest{LocationEntry{kHighId, 3, 1}},
          RegisterRequest::kWireBytes);
  ASSERT_TRUE(result.ok());
  const auto* ack = result.reply.body_as<UpdateAck>();
  ASSERT_NE(ack, nullptr);
  EXPECT_TRUE(ack->responsible);
  EXPECT_EQ(iagent_->entry_count(), 1u);

  const LocateReply reply = locate(kHighId);
  EXPECT_EQ(reply.status, LocateStatus::kFound);
  EXPECT_EQ(reply.node, 3u);
  EXPECT_EQ(iagent_->stats().locates, 1u);
}

TEST_F(IAgentTest, OneWayUpdateUpserts) {
  send_update(kHighId, 2, 1);
  EXPECT_EQ(locate(kHighId).node, 2u);
  send_update(kHighId, 4, 2);
  EXPECT_EQ(locate(kHighId).node, 4u);
  EXPECT_EQ(iagent_->stats().updates, 2u);
}

TEST_F(IAgentTest, ReorderedUpdatesKeepNewestLocation) {
  send_update(kHighId, 4, 2);
  send_update(kHighId, 2, 1);  // stale, must be ignored
  EXPECT_EQ(locate(kHighId).node, 4u);
}

TEST_F(IAgentTest, UnknownAgentIsUnknownAfterGrace) {
  // The bootstrap fixture never granted responsibility, so the IAgent's
  // transient grace from construction has passed after a run.
  cluster_.run_for(sim::SimTime::millis(200));
  EXPECT_EQ(locate(kHighId).status, LocateStatus::kUnknown);
  EXPECT_EQ(iagent_->stats().unknown_replies, 1u);
}

TEST_F(IAgentTest, NotResponsibleUpdateTriggersNotice) {
  grant(top_bit(true), 5);
  EXPECT_EQ(iagent_->hash_version(), 5u);
  send_update(kLowId, 2, 1);  // top bit 0: not ours
  ASSERT_EQ(client_->count<NotResponsibleNotice>(), 1u);
  const auto notice = client_->bodies<NotResponsibleNotice>().front();
  EXPECT_EQ(notice.agent, kLowId);
  EXPECT_EQ(notice.version_hint, 5u);
  EXPECT_EQ(iagent_->entry_count(), 0u);
}

TEST_F(IAgentTest, NotResponsibleLocateAndRegister) {
  grant(top_bit(true), 5);
  EXPECT_EQ(locate(kLowId).status, LocateStatus::kNotResponsible);
  const auto result = rpc(RegisterRequest{LocationEntry{kLowId, 2, 1}},
                          RegisterRequest::kWireBytes);
  const auto* ack = result.reply.body_as<UpdateAck>();
  ASSERT_NE(ack, nullptr);
  EXPECT_FALSE(ack->responsible);
  EXPECT_EQ(ack->version_hint, 5u);
}

TEST_F(IAgentTest, TransientGraceAfterResponsibilityChange) {
  grant(top_bit(true), 5);
  // Compatible but unknown, within the grace period: transient.
  EXPECT_EQ(locate(kHighId).status, LocateStatus::kTransient);
  cluster_.run_for(kTransientGrace);
  EXPECT_EQ(locate(kHighId).status, LocateStatus::kUnknown);
}

TEST_F(IAgentTest, StaleGrantIgnored) {
  grant(top_bit(true), 5);
  grant(top_bit(false), 3);  // stale version: must not regress
  EXPECT_EQ(iagent_->hash_version(), 5u);
  EXPECT_EQ(locate(kLowId).status, LocateStatus::kNotResponsible);
}

TEST_F(IAgentTest, TransferHandsOffMatchingEntries) {
  send_update(kHighId, 2, 1);
  send_update(kLowId, 3, 1);
  ASSERT_EQ(iagent_->entry_count(), 2u);

  AckingScriptAgent& fresh = cluster_.system.create<AckingScriptAgent>(4);
  cluster_.run_for(sim::SimTime::millis(5));
  // Keep the top-bit=1 region; transfer top-bit=0 entries to `fresh`.
  grant(top_bit(true), 7,
        platform::AgentAddress{4, fresh.id()}, top_bit(false));
  cluster_.run_for(sim::SimTime::millis(50));

  ASSERT_EQ(fresh.count<HandoffTransfer>(), 1u);
  const auto transfer = fresh.bodies<HandoffTransfer>().front();
  ASSERT_EQ(transfer.entries.size(), 1u);
  EXPECT_EQ(transfer.entries.front().agent, kLowId);
  EXPECT_TRUE(transfer.final_batch);
  EXPECT_EQ(iagent_->entry_count(), 1u);
  // The coordinator hears a RehashDone.
  EXPECT_EQ(hagent_stub_->count<RehashDone>(), 1u);
  EXPECT_EQ(iagent_->stats().handoff_entries_out, 1u);
}

TEST_F(IAgentTest, LargeTransferShipsAsBatchChain) {
  IAgent& big = cluster_.system.create<IAgent>(
      1, config_, platform::AgentAddress{0, hagent_stub_->id()});
  cluster_.run_for(sim::SimTime::millis(5));
  // 150 entries in the to-transfer region.
  for (std::uint64_t i = 0; i < 150; ++i) {
    cluster_.system.send(client_->id(),
                         platform::AgentAddress{1, big.id()},
                         UpdateRequest{LocationEntry{i + 1, 2, 1}},
                         UpdateRequest::kWireBytes);
  }
  cluster_.run_for(sim::SimTime::millis(100));
  ASSERT_EQ(big.entry_count(), 150u);

  AckingScriptAgent& fresh = cluster_.system.create<AckingScriptAgent>(4);
  cluster_.run_for(sim::SimTime::millis(5));
  ResponsibilityUpdate update;
  update.version = 7;
  update.predicate = top_bit(true);  // keep nothing (ids are small)
  update.has_transfer = true;
  update.transfer_to = platform::AgentAddress{4, fresh.id()};
  update.transfer_predicate = top_bit(false);
  const std::size_t bytes = update.wire_bytes();
  cluster_.system.send(hagent_stub_->id(),
                       platform::AgentAddress{1, big.id()}, update, bytes);
  cluster_.run_for(sim::SimTime::millis(200));

  // 150 entries in batches of kMaxHandoffBatch: 64 + 64 + 22, only the
  // last marked final.
  static_assert(kMaxHandoffBatch == 64);
  const auto batches = fresh.bodies<HandoffTransfer>();
  ASSERT_EQ(batches.size(), 3u);
  EXPECT_EQ(batches[0].entries.size(), 64u);
  EXPECT_FALSE(batches[0].final_batch);
  EXPECT_EQ(batches[1].entries.size(), 64u);
  EXPECT_FALSE(batches[1].final_batch);
  EXPECT_EQ(batches[2].entries.size(), 22u);
  EXPECT_TRUE(batches[2].final_batch);
  EXPECT_EQ(big.entry_count(), 0u);
  // RehashDone only after the whole chain was acked.
  EXPECT_EQ(hagent_stub_->count<RehashDone>(), 1u);
}

TEST_F(IAgentTest, WatchFiresOnceAndOnlyOnUpdate) {
  grant(Predicate{}, 2);
  hagent_stub_->received.clear();
  bool acked = false;
  cluster_.system.request(client_->id(), iagent_address(),
                          WatchRequest{kHighId}, WatchRequest::kWireBytes,
                          [&](platform::RpcResult result) {
                            acked = result.ok();
                          });
  cluster_.run_for(sim::SimTime::millis(20));
  EXPECT_TRUE(acked);
  EXPECT_EQ(iagent_->stats().watches_armed, 1u);

  send_update(kHighId, 3, 1);
  ASSERT_EQ(client_->count<WatchNotify>(), 1u);
  EXPECT_EQ(client_->bodies<WatchNotify>().front().entry.node, 3u);

  // One-shot: further updates do not notify again.
  send_update(kHighId, 4, 2);
  EXPECT_EQ(client_->count<WatchNotify>(), 1u);
  EXPECT_EQ(iagent_->stats().watches_fired, 1u);
}

TEST_F(IAgentTest, WatchRefusedBeyondCap) {
  IAgent& capped = cluster_.system.create<IAgent>(
      1, config_, platform::AgentAddress{0, hagent_stub_->id()});
  cluster_.run_for(sim::SimTime::millis(5));
  // One watch past the cap: the first kMaxWatchersPerAgent arm, the last is
  // refused.
  constexpr int kWatches = static_cast<int>(kMaxWatchersPerAgent) + 1;
  LocateStatus last_status = LocateStatus::kFound;
  for (int i = 0; i < kWatches; ++i) {
    cluster_.system.request(client_->id(),
                            platform::AgentAddress{1, capped.id()},
                            WatchRequest{kHighId}, WatchRequest::kWireBytes,
                            [&, i](platform::RpcResult result) {
                              if (i == kWatches - 1 && result.ok()) {
                                last_status =
                                    result.reply.body_as<LocateReply>()->status;
                              }
                            });
    cluster_.run_for(sim::SimTime::millis(20));
  }
  EXPECT_EQ(capped.stats().watches_armed, kMaxWatchersPerAgent);
  EXPECT_EQ(capped.stats().watches_refused, 1u);
  EXPECT_EQ(last_status, LocateStatus::kTransient);
}

TEST_F(IAgentTest, GrantWithoutTransferAcksImmediately) {
  grant(top_bit(true), 7);
  EXPECT_EQ(hagent_stub_->count<RehashDone>(), 1u);
  EXPECT_EQ(hagent_stub_->bodies<RehashDone>().front().version, 7u);
}

TEST_F(IAgentTest, HandoffTransferIncorporatesAndAcks) {
  HandoffTransfer transfer;
  transfer.entries.push_back(LocationEntry{kHighId, 5, 3});
  transfer.entries.push_back(LocationEntry{kLowId, 2, 1});
  bool acked = false;
  cluster_.system.request(client_->id(), iagent_address(), transfer,
                          transfer.wire_bytes(),
                          [&](platform::RpcResult result) {
                            acked = result.ok() &&
                                    result.reply.body_as<HandoffAck>();
                          });
  cluster_.run_for(sim::SimTime::millis(50));
  EXPECT_TRUE(acked);
  EXPECT_EQ(iagent_->entry_count(), 2u);
  EXPECT_EQ(locate(kHighId).node, 5u);
  EXPECT_EQ(iagent_->stats().handoff_entries_in, 2u);
}

TEST_F(IAgentTest, DuplicateHandoffIsIdempotent) {
  HandoffTransfer transfer;
  transfer.entries.push_back(LocationEntry{kHighId, 5, 3});
  for (int i = 0; i < 2; ++i) {
    cluster_.system.send(client_->id(), iagent_address(), transfer,
                         transfer.wire_bytes());
  }
  cluster_.run_for(sim::SimTime::millis(50));
  EXPECT_EQ(iagent_->entry_count(), 1u);
  EXPECT_EQ(iagent_->stats().handoff_entries_in, 1u);  // second is a dup
}

TEST_F(IAgentTest, RetireRoutesEntriesAndDisposes) {
  send_update(kHighId, 2, 1);
  send_update(kLowId, 3, 1);
  AckingScriptAgent& high_home = cluster_.system.create<AckingScriptAgent>(4);
  AckingScriptAgent& low_home = cluster_.system.create<AckingScriptAgent>(5);
  cluster_.run_for(sim::SimTime::millis(5));

  RetireOrder order;
  order.version = 9;
  order.routes.push_back(
      {top_bit(true), platform::AgentAddress{4, high_home.id()}});
  order.routes.push_back(
      {top_bit(false), platform::AgentAddress{5, low_home.id()}});
  const std::size_t bytes = order.wire_bytes();
  const platform::AgentId iagent_id = iagent_->id();
  cluster_.system.send(hagent_stub_->id(), iagent_address(), order, bytes);
  cluster_.run_for(sim::SimTime::millis(100));

  ASSERT_EQ(high_home.count<HandoffTransfer>(), 1u);
  EXPECT_EQ(high_home.bodies<HandoffTransfer>().front().entries.front().agent,
            kHighId);
  ASSERT_EQ(low_home.count<HandoffTransfer>(), 1u);
  EXPECT_EQ(low_home.bodies<HandoffTransfer>().front().entries.front().agent,
            kLowId);
  EXPECT_EQ(hagent_stub_->count<RehashDone>(), 1u);
  EXPECT_FALSE(cluster_.system.exists(iagent_id));
}

TEST_F(IAgentTest, RetireWithNoEntriesStillCompletes) {
  RetireOrder order;
  order.version = 9;
  const std::size_t bytes = order.wire_bytes();
  const platform::AgentId iagent_id = iagent_->id();
  cluster_.system.send(hagent_stub_->id(), iagent_address(), order, bytes);
  cluster_.run_for(sim::SimTime::millis(100));
  EXPECT_EQ(hagent_stub_->count<RehashDone>(), 1u);
  EXPECT_FALSE(cluster_.system.exists(iagent_id));
}

TEST_F(IAgentTest, RetiringAgentRejectsTraffic) {
  send_update(kHighId, 2, 1);
  AckingScriptAgent& home = cluster_.system.create<AckingScriptAgent>(4);
  cluster_.run_for(sim::SimTime::millis(5));
  RetireOrder order;
  order.version = 9;
  order.routes.push_back({Predicate{}, platform::AgentAddress{4, home.id()}});
  const std::size_t bytes = order.wire_bytes();
  cluster_.system.send(hagent_stub_->id(), iagent_address(), order, bytes);
  // Queue an update right behind the retire order; it must be refused.
  cluster_.system.send(client_->id(), iagent_address(),
                       UpdateRequest{LocationEntry{kHighId, 5, 2}},
                       UpdateRequest::kWireBytes);
  cluster_.run_for(sim::SimTime::millis(100));
  EXPECT_EQ(client_->count<NotResponsibleNotice>(), 1u);
}

TEST_F(IAgentTest, DeregisterRemovesEntry) {
  send_update(kHighId, 2, 5);
  cluster_.system.send(client_->id(), iagent_address(),
                       DeregisterRequest{kHighId, 6},
                       DeregisterRequest::kWireBytes);
  cluster_.run_for(sim::SimTime::millis(20));
  EXPECT_EQ(iagent_->entry_count(), 0u);
}

TEST_F(IAgentTest, LateUpdateAfterDeregisterStaysGone) {
  // Update(1), Deregister(3), then Update(2) arriving late: the tombstone
  // refuses it.
  send_update(kHighId, 2, 1);
  cluster_.system.send(client_->id(), iagent_address(),
                       DeregisterRequest{kHighId, 3},
                       DeregisterRequest::kWireBytes);
  cluster_.run_for(sim::SimTime::millis(20));
  send_update(kHighId, 4, 2);
  EXPECT_EQ(locate(kHighId).status, LocateStatus::kUnknown);
  EXPECT_EQ(iagent_->entry_count(), 0u);
}

TEST_F(IAgentTest, OverloadSendsSplitRequestWithLoads) {
  // Default cooldown in the fixture is 400 ms from creation; hammer locates
  // past it and past the first window close (2 s). t_max = 100/s and the
  // window is 2 s => >200 requests/window.
  for (int round = 0; round < 24; ++round) {
    for (int i = 0; i < 30; ++i) {
      cluster_.system.send(client_->id(), iagent_address(),
                           LocateRequest{static_cast<platform::AgentId>(
                               0x4000000000000000ull + i)},
                           LocateRequest::kWireBytes);
    }
    cluster_.run_for(sim::SimTime::millis(100));
  }
  ASSERT_GE(hagent_stub_->count<SplitRequest>(), 1u);
  const auto request = hagent_stub_->bodies<SplitRequest>().front();
  EXPECT_GT(request.rate, config_.t_max);
  EXPECT_FALSE(request.loads.empty());
  EXPECT_GE(iagent_->stats().split_requests, 1u);
}

TEST_F(IAgentTest, IdleSendsMergeRequestAfterCooldown) {
  // t_min = 1/s; no traffic at all. The first window roll (2 s) is past the
  // creation cooldown (400 ms) and reports rate 0 < t_min.
  cluster_.run_for(sim::SimTime::seconds(3));
  EXPECT_GE(hagent_stub_->count<MergeRequest>(), 1u);
  EXPECT_GE(iagent_->stats().merge_requests, 1u);
}

TEST_F(IAgentTest, CooldownLimitsRehashRequests) {
  // The fixture's cooldown is shorter than a window, so every roll may ask;
  // this IAgent's spans two windows, and answers to a coordinator of its own.
  config_.rehash_cooldown = kStatsWindow * 2;
  ScriptAgent& coordinator = cluster_.system.create<ScriptAgent>(0);
  cluster_.run_for(sim::SimTime::millis(5));
  cluster_.system.create<IAgent>(
      1, config_, platform::AgentAddress{0, coordinator.id()});
  cluster_.run_for(sim::SimTime::seconds(5));  // asks at the 4 s roll
  const auto early = coordinator.count<MergeRequest>();
  ASSERT_GE(early, 1u);
  cluster_.run_for(kStatsWindow);  // one more window, in cooldown
  EXPECT_EQ(coordinator.count<MergeRequest>(), early);
}

TEST_F(IAgentTest, MigrationCarriesTheLocationTable) {
  send_update(kHighId, 2, 1);
  send_update(kLowId, 3, 1);
  const auto size_before = iagent_->serialized_size();
  EXPECT_GT(size_before, 2048u);  // entries add to the migration image
  cluster_.system.migrate(iagent_->id(), 4);
  cluster_.run_for(sim::SimTime::millis(50));
  ASSERT_EQ(iagent_->node(), 4u);
  // The table survived the move; lookups work at the new node.
  EXPECT_EQ(iagent_->entry_count(), 2u);
  std::optional<platform::RpcResult> settled;
  cluster_.system.request(client_->id(),
                          platform::AgentAddress{4, iagent_->id()},
                          LocateRequest{kHighId}, LocateRequest::kWireBytes,
                          [&](platform::RpcResult r) { settled = r; });
  cluster_.run_for(sim::SimTime::millis(50));
  ASSERT_TRUE(settled.has_value() && settled->ok());
  EXPECT_EQ(settled->reply.body_as<LocateReply>()->node, 2u);
  // And the coordinator heard about the move.
  EXPECT_GE(hagent_stub_->count<IAgentMoved>(), 1u);
}

TEST_F(IAgentTest, LocalityMigrationFollowsEntries) {
  config_.locality_migration = true;
  IAgent& roamer = cluster_.system.create<IAgent>(
      1, config_, platform::AgentAddress{0, hagent_stub_->id()});
  cluster_.run_for(sim::SimTime::millis(5));
  // Most tracked agents sit at node 3.
  for (int i = 0; i < 8; ++i) {
    cluster_.system.send(client_->id(),
                         platform::AgentAddress{1, roamer.id()},
                         UpdateRequest{LocationEntry{
                             static_cast<platform::AgentId>(1000 + i), 3, 1}},
                         UpdateRequest::kWireBytes);
  }
  cluster_.run_for(sim::SimTime::seconds(3));  // past the first window roll
  EXPECT_EQ(roamer.node(), 3u);
  EXPECT_GE(roamer.stats().locality_migrations, 1u);
  // The coordinator was told about the move.
  ASSERT_GE(hagent_stub_->count<IAgentMoved>(), 1u);
  EXPECT_EQ(hagent_stub_->bodies<IAgentMoved>().back().node, 3u);
}

}  // namespace
}  // namespace agentloc::core
