#include "workload/tagent.hpp"

#include <gtest/gtest.h>

#include "core/home_scheme.hpp"
#include "net/network.hpp"
#include "platform/agent_system.hpp"
#include "sim/simulator.hpp"

namespace agentloc::workload {
namespace {

class TAgentTest : public ::testing::Test {
 protected:
  TAgentTest()
      : network_(simulator_, 8,
                 std::make_unique<net::FixedLatencyModel>(
                     sim::SimTime::millis(1)),
                 util::Rng(3)),
        system_(simulator_, network_),
        scheme_(system_, /*registries=*/1) {}

  TAgent& spawn(TAgent::Config config, net::NodeId node = 0) {
    return system_.create<TAgent>(node, scheme_, config);
  }

  sim::Simulator simulator_;
  net::Network network_;
  platform::AgentSystem system_;
  core::HomeRegistryLocationScheme scheme_;
};

TEST_F(TAgentTest, RegistersOnStart) {
  TAgent::Config config;
  TAgent& agent = spawn(config);
  agent.set_mobile(false);
  simulator_.run_until(sim::SimTime::millis(100));
  EXPECT_TRUE(agent.registered());
  EXPECT_EQ(scheme_.registry(0).entry_count(), 1u);
  EXPECT_EQ(agent.moves_completed(), 0u);
}

TEST_F(TAgentTest, ConstantResidenceMovesOnSchedule) {
  TAgent::Config config;
  config.residence = sim::SimTime::millis(100);
  config.exponential_residence = false;
  TAgent& agent = spawn(config);
  simulator_.run_until(sim::SimTime::millis(1050));
  // Moves at ~100, 200+, ... minus migration transfer time per hop.
  EXPECT_GE(agent.moves_completed(), 8u);
  EXPECT_LE(agent.moves_completed(), 10u);
}

TEST_F(TAgentTest, ExponentialResidenceIsSeedDeterministic) {
  TAgent::Config config;
  config.residence = sim::SimTime::millis(100);
  config.seed = 42;
  TAgent& a = spawn(config, 0);
  TAgent& b = spawn(config, 0);
  simulator_.run_until(sim::SimTime::seconds(5));
  // Same seed, same node sequence: identical move counts and positions.
  EXPECT_EQ(a.moves_completed(), b.moves_completed());
  EXPECT_EQ(a.node(), b.node());
}

TEST_F(TAgentTest, EachMoveReportsLocation) {
  TAgent::Config config;
  config.residence = sim::SimTime::millis(100);
  config.exponential_residence = false;
  TAgent& agent = spawn(config);
  simulator_.run_until(sim::SimTime::seconds(2));
  ASSERT_GT(agent.moves_completed(), 0u);
  EXPECT_EQ(scheme_.stats().updates, agent.moves_completed());
  // The tracker's view matches ground truth once the last update landed.
  simulator_.run_until(simulator_.now() + sim::SimTime::millis(20));
}

TEST_F(TAgentTest, ImmobileAgentStaysPut) {
  TAgent::Config config;
  TAgent& agent = spawn(config, 5);
  agent.set_mobile(false);
  simulator_.run_until(sim::SimTime::seconds(3));
  EXPECT_EQ(agent.node(), 5u);
  EXPECT_EQ(agent.moves_completed(), 0u);
}

TEST_F(TAgentTest, SetMobileTogglesRoaming) {
  TAgent::Config config;
  config.residence = sim::SimTime::millis(100);
  config.exponential_residence = false;
  TAgent& agent = spawn(config);
  agent.set_mobile(false);
  simulator_.run_until(sim::SimTime::seconds(1));
  EXPECT_EQ(agent.moves_completed(), 0u);
  agent.set_mobile(true);
  simulator_.run_until(sim::SimTime::seconds(2));
  const auto moved = agent.moves_completed();
  EXPECT_GT(moved, 0u);
  agent.set_mobile(false);
  simulator_.run_until(sim::SimTime::seconds(3));
  EXPECT_EQ(agent.moves_completed(), moved);
}

// set_mobile during the admission delay changes only what admit() does: it
// must not cancel the pending admission, or the agent roams unregistered.
TEST_F(TAgentTest, FreezeDuringAdmissionStillRegisters) {
  TAgent::Config config;
  config.residence = sim::SimTime::millis(100);
  config.exponential_residence = false;
  config.start_stagger = sim::SimTime::seconds(1);
  TAgent& agent = spawn(config);
  simulator_.run_until(sim::SimTime::zero());  // on_start: admission pending
  agent.set_mobile(false);
  simulator_.run_until(sim::SimTime::seconds(3));
  EXPECT_EQ(agent.moves_completed(), 0u);
  agent.set_mobile(true);
  simulator_.run_until(sim::SimTime::seconds(5));
  EXPECT_GT(agent.moves_completed(), 0u);
  EXPECT_EQ(scheme_.stats().updates, agent.moves_completed());
  EXPECT_TRUE(agent.registered());
  EXPECT_EQ(scheme_.stats().registers, 1u);
}

TEST_F(TAgentTest, ThawDuringAdmissionRegistersThenRoams) {
  TAgent::Config config;
  config.residence = sim::SimTime::millis(100);
  config.exponential_residence = false;
  config.start_stagger = sim::SimTime::seconds(1);
  TAgent& agent = spawn(config);
  agent.set_mobile(false);
  simulator_.run_until(sim::SimTime::zero());  // on_start: admission pending
  agent.set_mobile(true);
  simulator_.run_until(sim::SimTime::seconds(3));
  EXPECT_GT(agent.moves_completed(), 0u);
  EXPECT_TRUE(agent.registered());
  EXPECT_EQ(scheme_.stats().registers, 1u);
}

TEST_F(TAgentTest, SetResidenceChangesPace) {
  TAgent::Config config;
  config.residence = sim::SimTime::seconds(5);
  config.exponential_residence = false;
  TAgent& agent = spawn(config);
  simulator_.run_until(sim::SimTime::seconds(1));
  agent.set_residence(sim::SimTime::millis(100));
  // The already-armed 5s timer fires first; after that, the fast pace kicks
  // in.
  simulator_.run_until(sim::SimTime::seconds(8));
  EXPECT_GT(agent.moves_completed(), 10u);
}

TEST_F(TAgentTest, NodePoolRestrictsRoaming) {
  TAgent::Config config;
  config.residence = sim::SimTime::millis(50);
  config.seed = 9;
  TAgent& agent = system_.create<ClusteredTAgent>(
      2, scheme_, config, std::vector<net::NodeId>{2, 3, 4});
  for (int i = 0; i < 100; ++i) {
    simulator_.run_until(simulator_.now() + sim::SimTime::millis(100));
    if (const auto node = system_.node_of(agent.id())) {
      EXPECT_TRUE(*node == 2 || *node == 3 || *node == 4) << *node;
    }
  }
  EXPECT_GT(agent.moves_completed(), 20u);
}

TEST_F(TAgentTest, DisposeDeregisters) {
  TAgent::Config config;
  TAgent& agent = spawn(config);
  agent.set_mobile(false);
  simulator_.run_until(sim::SimTime::millis(100));
  ASSERT_EQ(scheme_.registry(0).entry_count(), 1u);
  system_.dispose(agent.id());
  simulator_.run_until(simulator_.now() + sim::SimTime::millis(100));
  EXPECT_EQ(scheme_.registry(0).entry_count(), 0u);
}

// The pending admission and move are events owned by the agent itself. A
// disposed agent lives on until the platform's next sweep and is freed
// after it, so on_dispose must cancel them or they fire on a freed agent.
TEST_F(TAgentTest, DisposeDuringAdmissionCancelsRegistration) {
  TAgent::Config config;
  config.residence = sim::SimTime::millis(100);
  config.exponential_residence = false;
  config.start_stagger = sim::SimTime::seconds(1);
  TAgent& agent = spawn(config);
  simulator_.run_until(sim::SimTime::zero());  // on_start: admission pending
  ASSERT_FALSE(agent.registered());
  system_.dispose(agent.id());
  simulator_.run_until(sim::SimTime::seconds(1) + sim::SimTime::millis(200));
  EXPECT_EQ(scheme_.stats().registers, 0u);
  EXPECT_EQ(system_.stats().migrations_started, 0u);
  EXPECT_EQ(scheme_.registry(0).entry_count(), 0u);
}

TEST_F(TAgentTest, DisposeMidDwellCancelsTheNextMove) {
  TAgent::Config config;
  config.residence = sim::SimTime::millis(100);
  config.exponential_residence = false;
  TAgent& agent = spawn(config);
  // First move at 100 ms; the second is due one residence after arrival.
  simulator_.run_until(sim::SimTime::millis(150));
  ASSERT_EQ(agent.moves_completed(), 1u);
  const std::uint64_t updates = scheme_.stats().updates;
  system_.dispose(agent.id());
  simulator_.run_until(sim::SimTime::millis(150) + sim::SimTime::millis(300));
  EXPECT_EQ(system_.stats().migrations_started, 1u);
  EXPECT_EQ(scheme_.stats().updates, updates);
  EXPECT_EQ(scheme_.stats().registers, 1u);
  EXPECT_EQ(scheme_.registry(0).entry_count(), 0u);
}

}  // namespace
}  // namespace agentloc::workload
