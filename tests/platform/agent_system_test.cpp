#include "platform/agent_system.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

namespace agentloc::platform {
namespace {

struct TextPayload {
  std::string text;
};

/// Records everything that happens to it.
class Probe : public Agent {
 public:
  void on_start() override { events.push_back("start"); }

  void on_arrival(net::NodeId from) override {
    events.push_back("arrive_from_" + std::to_string(from));
  }

  void on_message(const Message& message) override {
    if (const auto* payload = message.body_as<TextPayload>()) {
      events.push_back("msg:" + payload->text);
      last_message = message;
      if (reply_with_echo) {
        system().reply(message, id(), TextPayload{"echo:" + payload->text},
                       64);
      }
    }
  }

  void on_delivery_failure(const DeliveryFailure& failure) override {
    events.push_back("bounce");
    last_failure = failure;
  }

  void on_dispose() override { events.push_back("dispose"); }

  std::vector<std::string> events;
  Message last_message;
  DeliveryFailure last_failure;
  bool reply_with_echo = false;
};

class AgentSystemTest : public ::testing::Test {
 protected:
  AgentSystemTest()
      : network_(sim_, 4,
                 std::make_unique<net::FixedLatencyModel>(
                     sim::SimTime::millis(1)),
                 util::Rng(7)),
        system_(sim_, network_, make_config()) {}

  static AgentSystem::Config make_config() {
    AgentSystem::Config config;
    config.service_time = sim::SimTime::micros(100);
    return config;
  }

  sim::Simulator sim_;
  net::Network network_;
  AgentSystem system_;
};

TEST_F(AgentSystemTest, CreateRunsOnStartAtNode) {
  Probe& probe = system_.create<Probe>(2);
  EXPECT_EQ(probe.node(), 2u);
  EXPECT_NE(probe.id(), kNoAgent);
  sim_.run();
  ASSERT_EQ(probe.events.size(), 1u);
  EXPECT_EQ(probe.events[0], "start");
  EXPECT_EQ(system_.node_of(probe.id()), 2u);
  EXPECT_EQ(system_.stats().agents_created, 1u);
}

TEST_F(AgentSystemTest, MixedIdsAreUniqueAndWellSpread) {
  std::vector<AgentId> ids;
  for (int i = 0; i < 64; ++i) ids.push_back(system_.create<Probe>(0).id());
  std::sort(ids.begin(), ids.end());
  EXPECT_EQ(std::unique(ids.begin(), ids.end()), ids.end());
  // Mixed ids should not be tiny consecutive integers.
  EXPECT_GT(ids.back(), 1ull << 32);
}

TEST_F(AgentSystemTest, SendDeliversWithLatencyAndServiceTime) {
  Probe& a = system_.create<Probe>(0);
  Probe& b = system_.create<Probe>(1);
  sim_.run();
  system_.send(a.id(), AgentAddress{1, b.id()}, TextPayload{"hi"}, 128);
  sim_.run();
  ASSERT_EQ(b.events.size(), 2u);
  EXPECT_EQ(b.events[1], "msg:hi");
  // 1ms network + 100us service.
  EXPECT_EQ(sim_.now(), sim::SimTime::micros(1100));
  EXPECT_EQ(b.last_message.from, a.id());
  EXPECT_EQ(b.last_message.from_node, 0u);
}

TEST_F(AgentSystemTest, InboxIsFifoWithPerMessageService) {
  Probe& a = system_.create<Probe>(0);
  Probe& b = system_.create<Probe>(1);
  sim_.run();
  for (int i = 0; i < 5; ++i) {
    system_.send(a.id(), AgentAddress{1, b.id()},
                 TextPayload{std::to_string(i)}, 64);
  }
  sim_.run();
  ASSERT_EQ(b.events.size(), 6u);
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(b.events[static_cast<std::size_t>(i) + 1],
              "msg:" + std::to_string(i));
  }
  // All five arrive at t=1ms, then drain one per 100us: last at 1.5ms.
  EXPECT_EQ(sim_.now(), sim::SimTime::micros(1500));
}

TEST_F(AgentSystemTest, DuplicatedSendServesBothCopiesIntact) {
  // The first copy to land takes a fresh pool slot while the original waits
  // for the second delivery; from a one-slot pool that copy reallocates it.
  network_.faults().duplicate_probability = 1.0;
  Probe& a = system_.create<Probe>(0);
  Probe& b = system_.create<Probe>(1);
  sim_.run();
  const std::string text(40, 'x');  // heap-backed, so copies are deep
  system_.send(a.id(), AgentAddress{1, b.id()}, TextPayload{text}, 64);
  sim_.run();
  ASSERT_EQ(b.events.size(), 3u);
  EXPECT_EQ(b.events[1], "msg:" + text);
  EXPECT_EQ(b.events[2], "msg:" + text);
}

TEST_F(AgentSystemTest, QueueDepthVisibleWhileDraining) {
  Probe& a = system_.create<Probe>(0);
  Probe& b = system_.create<Probe>(1);
  sim_.run();
  for (int i = 0; i < 5; ++i) {
    system_.send(a.id(), AgentAddress{1, b.id()}, TextPayload{"x"}, 64);
  }
  // All five land at t=1ms; the first completes service at 1.1ms.
  sim_.run_until(sim::SimTime::micros(1150));
  EXPECT_EQ(system_.inbox_depth(b.id()), 4u);
}

TEST_F(AgentSystemTest, MigrationMovesAgentAndFiresArrival) {
  Probe& probe = system_.create<Probe>(0);
  sim_.run();
  system_.migrate(probe.id(), 3);
  EXPECT_TRUE(system_.in_transit(probe.id()));
  EXPECT_EQ(system_.node_of(probe.id()), std::nullopt);
  sim_.run();
  EXPECT_EQ(probe.node(), 3u);
  ASSERT_EQ(probe.events.size(), 2u);
  EXPECT_EQ(probe.events[1], "arrive_from_0");
  EXPECT_EQ(system_.stats().migrations_completed, 1u);
}

TEST_F(AgentSystemTest, MigrateWhileInTransitThrows) {
  Probe& probe = system_.create<Probe>(0);
  sim_.run();
  system_.migrate(probe.id(), 1);
  EXPECT_THROW(system_.migrate(probe.id(), 2), std::logic_error);
  EXPECT_THROW(system_.migrate(kNoAgent, 1), std::logic_error);
  EXPECT_THROW(system_.migrate(probe.id(), 99), std::out_of_range);
}

TEST_F(AgentSystemTest, MessageToDepartedAgentBouncesToSender) {
  Probe& a = system_.create<Probe>(0);
  Probe& b = system_.create<Probe>(1);
  sim_.run();
  system_.migrate(b.id(), 2);
  sim_.run();
  // a still believes b is at node 1.
  system_.send(a.id(), AgentAddress{1, b.id()}, TextPayload{"stale"}, 64);
  sim_.run();
  ASSERT_FALSE(a.events.empty());
  EXPECT_EQ(a.events.back(), "bounce");
  EXPECT_EQ(a.last_failure.attempted.agent, b.id());
  EXPECT_EQ(system_.stats().messages_bounced, 1u);
}

TEST_F(AgentSystemTest, MigrationSurvivesFaultyLink) {
  Probe& probe = system_.create<Probe>(0);
  sim_.run();
  network_.faults().set_partitioned(0, 1, true);
  system_.migrate(probe.id(), 1);
  sim_.run_until(sim::SimTime::millis(20));
  EXPECT_TRUE(system_.in_transit(probe.id()));
  network_.faults().set_partitioned(0, 1, false);
  sim_.run();
  EXPECT_EQ(probe.node(), 1u);
}

TEST_F(AgentSystemTest, RequestReplyRoundTrip) {
  Probe& a = system_.create<Probe>(0);
  Probe& b = system_.create<Probe>(1);
  b.reply_with_echo = true;
  sim_.run();
  RpcResult got;
  bool done = false;
  system_.request(a.id(), AgentAddress{1, b.id()}, TextPayload{"ping"}, 64,
                  [&](RpcResult result) {
                    got = std::move(result);
                    done = true;
                  });
  sim_.run();
  ASSERT_TRUE(done);
  ASSERT_TRUE(got.ok());
  const auto* echoed = got.reply.body_as<TextPayload>();
  ASSERT_NE(echoed, nullptr);
  EXPECT_EQ(echoed->text, "echo:ping");
  EXPECT_EQ(got.reply.from, b.id());
}

TEST_F(AgentSystemTest, RequestToMissingAgentFailsFast) {
  Probe& a = system_.create<Probe>(0);
  sim_.run();
  RpcResult got;
  bool done = false;
  system_.request(a.id(), AgentAddress{1, 0xdeadbeef}, TextPayload{"?"}, 64,
                  [&](RpcResult result) {
                    got = std::move(result);
                    done = true;
                  });
  sim_.run();
  ASSERT_TRUE(done);
  EXPECT_EQ(got.status, RpcResult::Status::kDeliveryFailure);
}

TEST_F(AgentSystemTest, RequestTimesOutWhenNoReply) {
  Probe& a = system_.create<Probe>(0);
  Probe& b = system_.create<Probe>(1);  // does not echo
  sim_.run();
  RpcResult got;
  bool done = false;
  system_.request(a.id(), AgentAddress{1, b.id()}, TextPayload{"ping"}, 64,
                  [&](RpcResult result) {
                    got = std::move(result);
                    done = true;
                  },
                  sim::SimTime::millis(10));
  sim_.run();
  ASSERT_TRUE(done);
  EXPECT_EQ(got.status, RpcResult::Status::kTimeout);
  EXPECT_EQ(system_.stats().rpc_timeouts, 1u);
}

TEST_F(AgentSystemTest, LateReplyAfterTimeoutIsIgnored) {
  Probe& a = system_.create<Probe>(0);
  Probe& b = system_.create<Probe>(1);
  b.reply_with_echo = true;
  sim_.run();
  int callbacks = 0;
  // Timeout shorter than the 1ms network latency: reply arrives late.
  system_.request(a.id(), AgentAddress{1, b.id()}, TextPayload{"ping"}, 64,
                  [&](RpcResult) { ++callbacks; },
                  sim::SimTime::micros(500));
  sim_.run();
  EXPECT_EQ(callbacks, 1);
}

TEST_F(AgentSystemTest, DisposeBouncesQueuedMessages) {
  Probe& a = system_.create<Probe>(0);
  Probe& b = system_.create<Probe>(1);
  sim_.run();
  system_.send(a.id(), AgentAddress{1, b.id()}, TextPayload{"one"}, 64);
  system_.send(a.id(), AgentAddress{1, b.id()}, TextPayload{"two"}, 64);
  // Dispose b after the first message is served but before the second.
  sim_.run_until(sim::SimTime::micros(1150));
  ASSERT_EQ(b.events.size(), 2u);  // start + first message
  const AgentId b_id = b.id();  // b is destroyed once the sim drains
  system_.dispose(b_id);
  sim_.run();
  EXPECT_FALSE(system_.exists(b_id));
  EXPECT_EQ(a.events.back(), "bounce");
}

TEST_F(AgentSystemTest, RetryFromDisposingSenderFailsBeforeDisposeReturns) {
  // dispose() fails the sender's pending RPCs. A failure callback that
  // retries must fail at once too: an RPC registered now would outlive the
  // sender and time out after it is destroyed.
  Probe& a = system_.create<Probe>(0);
  Probe& b = system_.create<Probe>(1);  // does not echo
  sim_.run();
  const AgentId a_id = a.id();
  const AgentAddress b_address{1, b.id()};
  std::vector<RpcResult::Status> outcomes;
  system_.request(a_id, b_address, TextPayload{"ping"}, 64,
                  [&](RpcResult first) {
                    outcomes.push_back(first.status);
                    system_.request(a_id, b_address, TextPayload{"retry"}, 64,
                                    [&](RpcResult retry) {
                                      outcomes.push_back(retry.status);
                                    });
                  });
  sim_.run_until(sim_.now() + sim::SimTime::millis(5));  // b holds the ping
  ASSERT_TRUE(outcomes.empty());

  system_.dispose(a_id);
  ASSERT_EQ(outcomes.size(), 2u);
  EXPECT_EQ(outcomes[0], RpcResult::Status::kDeliveryFailure);
  EXPECT_EQ(outcomes[1], RpcResult::Status::kDeliveryFailure);

  sim_.run_until(sim_.now() + sim::SimTime::seconds(1));
  EXPECT_EQ(outcomes.size(), 2u);
  EXPECT_EQ(system_.stats().rpc_timeouts, 0u);
  EXPECT_EQ(system_.stats().rpc_delivery_failures, 2u);
}

TEST_F(AgentSystemTest, AgentCanDisposeItselfInCallback) {
  class SelfDisposer : public Agent {
   public:
    void on_message(const Message&) override { system().dispose(id()); }
  };
  SelfDisposer& victim = system_.create<SelfDisposer>(1);
  const AgentId victim_id = victim.id();  // victim is destroyed mid-run
  Probe& a = system_.create<Probe>(0);
  sim_.run();
  system_.send(a.id(), AgentAddress{1, victim_id}, TextPayload{"die"}, 64);
  sim_.run();
  EXPECT_FALSE(system_.exists(victim_id));
  EXPECT_EQ(system_.stats().agents_disposed, 1u);
}

TEST_F(AgentSystemTest, SequentialIdsWhenMixedDisabled) {
  AgentSystem::Config config;
  config.mixed_ids = false;
  AgentSystem plain(sim_, network_, config);
  EXPECT_EQ(plain.create<Probe>(0).id(), 1u);
  EXPECT_EQ(plain.create<Probe>(0).id(), 2u);
}

TEST_F(AgentSystemTest, MessagesInFlightDuringMigrationBounce) {
  Probe& a = system_.create<Probe>(0);
  Probe& b = system_.create<Probe>(1);
  sim_.run();
  // Send, then migrate b before the message lands.
  system_.send(a.id(), AgentAddress{1, b.id()}, TextPayload{"race"}, 64);
  system_.migrate(b.id(), 2);
  sim_.run();
  EXPECT_TRUE(std::find(b.events.begin(), b.events.end(), "msg:race") ==
              b.events.end());
  EXPECT_EQ(a.events.back(), "bounce");
}

TEST_F(AgentSystemTest, SlotReuseAfterDisposeKeepsIdentitiesDistinct) {
  // Slab storage recycles the dense slot, never the AgentId: traffic for
  // the old tenant must bounce, not reach whoever inherits the slot.
  Probe& first = system_.create<Probe>(0);
  const AgentId old_id = first.id();
  sim_.run();
  system_.dispose(old_id);
  sim_.run();

  Probe& second = system_.create<Probe>(0);  // reuses the freed slot
  Probe& sender = system_.create<Probe>(1);
  sim_.run();
  ASSERT_NE(second.id(), old_id);
  system_.send(sender.id(), AgentAddress{0, old_id}, TextPayload{"ghost"},
               64);
  sim_.run();
  EXPECT_EQ(sender.events.back(), "bounce");
  EXPECT_TRUE(std::find(second.events.begin(), second.events.end(),
                        "msg:ghost") == second.events.end());

  // The new tenant is fully live.
  system_.send(sender.id(), AgentAddress{0, second.id()},
               TextPayload{"real"}, 64);
  sim_.run();
  EXPECT_EQ(second.events.back(), "msg:real");
}

TEST_F(AgentSystemTest, MemoryBreakdownSumsToEstimateAndTracksPeak) {
  const MemoryBreakdown before = system_.memory_breakdown();
  EXPECT_EQ(before.total(), system_.estimated_resident_bytes());

  std::vector<AgentId> ids;
  for (int i = 0; i < 200; ++i) {
    ids.push_back(system_.create<Probe>(static_cast<net::NodeId>(i % 4)).id());
  }
  sim_.run();
  const MemoryBreakdown grown = system_.memory_breakdown();
  EXPECT_EQ(grown.total(), system_.estimated_resident_bytes());
  EXPECT_GT(grown.agent_records, before.agent_records);

  // Every inbox queues in the one message pool: agents that are each served
  // one message in turn leave message storage where a single message did.
  const auto message_bytes = [this] {
    const MemoryBreakdown memory = system_.memory_breakdown();
    return memory.inboxes + memory.in_flight;
  };
  system_.send(ids[1], AgentAddress{0, ids[0]}, TextPayload{"one"}, 64);
  sim_.run();
  const std::size_t single = message_bytes();
  for (std::size_t i = 2; i < 50; ++i) {
    system_.send(ids[1], AgentAddress{static_cast<net::NodeId>(i % 4), ids[i]},
                 TextPayload{"one"}, 64);
    sim_.run();
  }
  EXPECT_EQ(message_bytes(), single);

  // A queued burst grows the pool, and the capacity survives the drain.
  for (int i = 0; i < 8; ++i) {
    system_.send(ids[1], AgentAddress{0, ids[0]}, TextPayload{"fill"}, 64);
  }
  sim_.run();
  EXPECT_GT(system_.memory_breakdown().in_flight, before.in_flight);
  EXPECT_EQ(system_.memory_breakdown().inboxes, 0u);
  // The high-water mark saw the growth and never reads below the present.
  EXPECT_GE(system_.stats().peak_resident_bytes,
            system_.memory_breakdown().total());

  // Disposal releases records but the watermark holds.
  const std::size_t peak = system_.stats().peak_resident_bytes;
  for (const AgentId id : ids) system_.dispose(id);
  sim_.run();
  EXPECT_EQ(system_.stats().peak_resident_bytes, peak);
  EXPECT_EQ(system_.live_agent_count(), 0u);
}

TEST_F(AgentSystemTest, ReserveHoldsCapacityThroughPopulation) {
  system_.reserve(512);
  const std::size_t reserved = system_.memory_breakdown().agent_records;
  for (int i = 0; i < 500; ++i) {
    system_.create<Probe>(static_cast<net::NodeId>(i % 4));
  }
  sim_.run();
  // No record-storage regrowth: the reserve covered the whole population.
  EXPECT_EQ(system_.memory_breakdown().agent_records, reserved);
  EXPECT_EQ(system_.live_agent_count(), 500u);
}

}  // namespace
}  // namespace agentloc::platform
