// Randomized stress of the agent platform: arbitrary interleavings of
// creates, migrations, sends, RPCs, and disposals must preserve the
// platform's invariants — every RPC completes exactly once, no callback
// runs for a disposed agent, ground truth stays consistent, and the
// simulation always drains.

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <set>
#include <vector>

#include "net/network.hpp"
#include "platform/agent_system.hpp"
#include "sim/simulator.hpp"

namespace agentloc::platform {
namespace {

struct Ping {
  int tag = 0;
  static constexpr std::size_t kWireBytes = 24;
};

/// Echoes Pings; counts everything that happens to it.
class FuzzAgent : public Agent {
 public:
  void on_message(const Message& message) override {
    ++messages;
    if (message.body_as<Ping>() != nullptr && message.correlation != 0) {
      system().reply(message, id(), Ping{}, Ping::kWireBytes);
    }
  }
  void on_arrival(net::NodeId) override { ++arrivals; }
  void on_dispose() override { disposed = true; }

  int messages = 0;
  int arrivals = 0;
  bool disposed = false;
};

class PlatformFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PlatformFuzz, RandomOpsKeepInvariants) {
  util::Rng rng(GetParam());
  sim::Simulator simulator;
  net::Network network(simulator, 6,
                       std::make_unique<net::UniformLatencyModel>(
                           sim::SimTime::micros(200), sim::SimTime::millis(4)),
                       rng.fork());
  network.faults().drop_probability = 0.05;
  network.faults().duplicate_probability = 0.05;
  AgentSystem::Config config;
  config.service_time = sim::SimTime::micros(100);
  AgentSystem system(simulator, network, config);
  // Lost requests time out while the ops still run (400 steps of 2 ms).
  const sim::SimTime rpc_timeout = sim::SimTime::millis(50);

  std::vector<AgentId> live;
  std::set<AgentId> ever;
  int rpcs_started = 0;
  int rpcs_completed = 0;

  const auto random_live = [&]() -> AgentId {
    return live[rng.next_below(live.size())];
  };

  for (int i = 0; i < 5; ++i) {
    const AgentId id = system.create<FuzzAgent>(
        static_cast<net::NodeId>(rng.next_below(6))).id();
    live.push_back(id);
    ever.insert(id);
  }

  for (int step = 0; step < 400; ++step) {
    simulator.run_until(simulator.now() + sim::SimTime::millis(2));
    const auto roll = rng.next_below(100);
    if (roll < 10 && live.size() < 30) {
      const AgentId id = system.create<FuzzAgent>(
          static_cast<net::NodeId>(rng.next_below(6))).id();
      live.push_back(id);
      ever.insert(id);
    } else if (roll < 20 && live.size() > 2) {
      const auto victim = rng.next_below(live.size());
      system.dispose(live[victim]);
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(victim));
    } else if (roll < 40) {
      const AgentId mover = random_live();
      if (system.node_of(mover)) {
        system.migrate(mover,
                       static_cast<net::NodeId>(rng.next_below(6)));
      }
    } else if (roll < 70) {
      const AgentId from = random_live();
      const AgentId to = random_live();
      const auto to_node = system.node_of(to);
      if (system.node_of(from) && to_node) {
        system.send(from, AgentAddress{*to_node, to}, Ping{step},
                    Ping::kWireBytes);
      }
    } else {
      const AgentId from = random_live();
      const AgentId to = random_live();
      const auto to_node = system.node_of(to);
      if (system.node_of(from) && to_node) {
        ++rpcs_started;
        system.request(from, AgentAddress{*to_node, to}, Ping{step},
                       Ping::kWireBytes,
                       [&rpcs_completed](RpcResult) { ++rpcs_completed; },
                       rpc_timeout);
      }
    }
  }

  // Drain: every in-flight message, migration, and timeout resolves.
  simulator.run_until(simulator.now() + sim::SimTime::seconds(2));
  EXPECT_EQ(rpcs_completed, rpcs_started)
      << "every RPC must complete exactly once";

  // Ground truth consistent: every live agent is at a valid node or gone.
  for (const AgentId id : live) {
    if (!system.exists(id)) continue;  // self-disposal not possible here
    const auto node = system.node_of(id);
    ASSERT_TRUE(node.has_value());
    EXPECT_LT(*node, 6u);
    auto* agent = dynamic_cast<FuzzAgent*>(system.find(id));
    ASSERT_NE(agent, nullptr);
    EXPECT_FALSE(agent->disposed);
    EXPECT_EQ(agent->node(), *node);
  }

  // Conservation: created == live + disposed.
  EXPECT_EQ(system.stats().agents_created,
            live.size() + system.stats().agents_disposed);
  // Migrations of agents disposed mid-transit legitimately never complete;
  // all other migrations must have, and no live agent is still in transit.
  EXPECT_LE(system.stats().migrations_completed,
            system.stats().migrations_started);
  EXPECT_GE(system.stats().migrations_completed +
                system.stats().agents_disposed,
            system.stats().migrations_started);
  for (const AgentId id : live) {
    EXPECT_FALSE(system.in_transit(id));
  }
}

TEST_P(PlatformFuzz, DrainedSimulatorHasNoAgentEvents) {
  // After a drain with no timers armed, the only way the queue refills is a
  // new external stimulus — nothing in the platform self-schedules forever.
  util::Rng rng(GetParam() ^ 0xfade);
  sim::Simulator simulator;
  net::Network network(simulator, 3,
                       std::make_unique<net::FixedLatencyModel>(
                           sim::SimTime::millis(1)),
                       rng.fork());
  AgentSystem system(simulator, network);
  auto& a = system.create<FuzzAgent>(0);
  auto& b = system.create<FuzzAgent>(1);
  simulator.run();
  system.send(a.id(), AgentAddress{1, b.id()}, Ping{1}, Ping::kWireBytes);
  simulator.run();
  EXPECT_TRUE(simulator.empty());
  EXPECT_EQ(b.messages, 1);
}

INSTANTIATE_TEST_SUITE_P(Seeds, PlatformFuzz,
                         ::testing::Range<std::uint64_t>(0, 12));

}  // namespace
}  // namespace agentloc::platform
