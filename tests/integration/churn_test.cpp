// Churn: agents are created and destroyed while the system runs ("highly
// dynamic open systems in which the number of agents varies considerably
// over time" — paper §1). The mechanism must keep answering for the living
// and fail cleanly for the departed, while its IAgent population follows
// the load both ways.

#include <gtest/gtest.h>

#include "core/hash_scheme.hpp"
#include "platform/agent_system.hpp"
#include "workload/querier.hpp"
#include "workload/tagent.hpp"

namespace agentloc::workload {
namespace {

class ChurnTest : public ::testing::Test {
 protected:
  ChurnTest()
      : network_(simulator_, 12, net::make_default_lan_model(),
                 util::Rng(21)),
        system_(simulator_, network_, platform_config()),
        scheme_(system_, mechanism_config()) {}

  static platform::AgentSystem::Config platform_config() {
    platform::AgentSystem::Config config;
    config.service_time = sim::SimTime::micros(500);
    return config;
  }

  static core::MechanismConfig mechanism_config() {
    core::MechanismConfig config;
    config.rehash_cooldown = sim::SimTime::seconds(1);
    config.t_max = 30.0;
    config.t_min = 3.0;
    return config;
  }

  TAgent& spawn(net::NodeId node, sim::SimTime residence) {
    TAgent::Config config;
    config.residence = residence;
    config.seed = seeds_.next();
    return system_.create<TAgent>(node, scheme_, config);
  }

  sim::Simulator simulator_;
  net::Network network_;
  platform::AgentSystem system_;
  core::MechanismConfig mechanism_;
  core::HashLocationScheme scheme_;
  util::Rng seeds_{404};
};

TEST_F(ChurnTest, PopulationWaveGrowsAndShrinksIAgents) {
  // Wave 1: a small population.
  std::vector<TAgent*> wave;
  for (int i = 0; i < 10; ++i) {
    wave.push_back(&spawn(static_cast<net::NodeId>(i % 12),
                          sim::SimTime::millis(300)));
  }
  simulator_.run_until(sim::SimTime::seconds(10));
  const std::size_t small = scheme_.tracker_count();

  // Wave 2: five times more agents arrive.
  std::vector<TAgent*> surge;
  for (int i = 0; i < 50; ++i) {
    surge.push_back(&spawn(static_cast<net::NodeId>(i % 12),
                           sim::SimTime::millis(300)));
  }
  simulator_.run_until(sim::SimTime::seconds(40));
  const std::size_t big = scheme_.tracker_count();
  EXPECT_GT(big, small);

  // The surge departs (dispose deregisters through TAgent::on_dispose).
  for (TAgent* agent : surge) {
    if (system_.node_of(agent->id())) system_.dispose(agent->id());
  }
  simulator_.run_until(sim::SimTime::seconds(90));
  EXPECT_LT(scheme_.tracker_count(), big);

  // The original population is still fully locatable.
  std::vector<platform::AgentId> targets;
  for (TAgent* agent : wave) targets.push_back(agent->id());
  QuerierAgent::Config qconfig;
  qconfig.quota = 50;
  qconfig.seed = seeds_.next();
  auto& querier = system_.create<QuerierAgent>(
      3, scheme_, qconfig, targets, [&] { simulator_.request_stop(); });
  simulator_.run_until(sim::SimTime::seconds(300));
  EXPECT_EQ(querier.found(), 50u);
}

TEST_F(ChurnTest, DisposedMidFlightAgentsDontWedgeTheSystem) {
  // Dispose agents at random moments, including while in transit.
  std::vector<platform::AgentId> ids;
  for (int i = 0; i < 30; ++i) {
    ids.push_back(
        spawn(static_cast<net::NodeId>(i % 12), sim::SimTime::millis(150))
            .id());
  }
  simulator_.run_until(sim::SimTime::seconds(5));
  for (const platform::AgentId id : ids) {
    simulator_.schedule_after(sim::SimTime::millis(seeds_.next_below(2000)),
                              [this, id] { system_.dispose(id); });
  }
  simulator_.run_until(sim::SimTime::seconds(30));
  // All 30 TAgents are gone (retired IAgents dispose themselves too, so the
  // platform counter may read higher).
  EXPECT_GE(system_.stats().agents_disposed, 30u);
  for (const platform::AgentId id : ids) EXPECT_FALSE(system_.exists(id));

  // The mechanism is still healthy: a fresh agent registers and is found.
  TAgent& fresh = spawn(2, sim::SimTime::seconds(10));
  simulator_.run_until(sim::SimTime::seconds(31));
  QuerierAgent::Config qconfig;
  qconfig.quota = 3;
  qconfig.seed = 5;
  auto& querier = system_.create<QuerierAgent>(
      7, scheme_, qconfig, std::vector<platform::AgentId>{fresh.id()},
      [&] { simulator_.request_stop(); });
  simulator_.run_until(sim::SimTime::seconds(120));
  EXPECT_EQ(querier.found(), 3u);
}

TEST_F(ChurnTest, RehashDuringConstantQueryStreamLosesNothing) {
  std::vector<platform::AgentId> targets;
  for (int i = 0; i < 20; ++i) {
    targets.push_back(
        spawn(static_cast<net::NodeId>(i % 12), sim::SimTime::millis(200))
            .id());
  }
  // Query continuously from t=1s — right through the initial splits.
  simulator_.run_until(sim::SimTime::seconds(1));
  QuerierAgent::Config qconfig;
  qconfig.quota = 400;
  qconfig.think = sim::SimTime::millis(20);
  qconfig.seed = 6;
  auto& querier = system_.create<QuerierAgent>(
      1, scheme_, qconfig, targets, [&] { simulator_.request_stop(); });
  simulator_.run_until(sim::SimTime::seconds(300));

  EXPECT_EQ(querier.found() + querier.failed(), 400u);
  EXPECT_EQ(querier.failed(), 0u);
  // Splits really happened while we were querying.
  EXPECT_GT(scheme_.hagent().stats().simple_splits +
                scheme_.hagent().stats().complex_splits,
            0u);
}

}  // namespace
}  // namespace agentloc::workload
