// Robustness: the location protocol must converge despite lossy links,
// duplicated messages, and temporary partitions. Losses surface as RPC
// timeouts (bounded end-to-end retries), duplicates are defused by
// sequence-checked upserts, and partitions heal through the lazy-refresh
// path once connectivity returns.

#include <gtest/gtest.h>

#include "core/hash_scheme.hpp"
#include "workload/experiment.hpp"
#include "workload/querier.hpp"
#include "workload/tagent.hpp"

namespace agentloc::workload {
namespace {

ExperimentConfig lossy_config(const std::string& scheme, double drop) {
  ExperimentConfig config;
  config.scheme = scheme;
  config.nodes = 8;
  config.tagents = 25;
  config.residence = sim::SimTime::millis(400);
  config.total_queries = 300;
  config.queriers = 2;
  config.warmup = sim::SimTime::seconds(25);
  config.drop_probability = drop;
  config.seed = 77;
  return config;
}

TEST(FaultInjection, HashSchemeSurvivesTwoPercentLoss) {
  const ExperimentResult result = run_experiment(lossy_config("hash", 0.02));
  EXPECT_EQ(result.queries_found + result.queries_failed, 300u);
  // Losses cost retries, not answers.
  EXPECT_GT(result.queries_found, 290u);
  EXPECT_GT(result.network_stats.messages_dropped, 0u);
  EXPECT_LT(result.location_ms.mean(), 100.0);
}

TEST(FaultInjection, CentralizedSurvivesTwoPercentLoss) {
  const ExperimentResult result =
      run_experiment(lossy_config("centralized", 0.02));
  EXPECT_GT(result.queries_found, 290u);
}

TEST(FaultInjection, HashSchemeSurvivesHeavyLoss) {
  // 10% loss: rehash coordination messages get lost too. The coordinator's
  // timeout unlocks it; updates self-heal entries. Most queries still land.
  const ExperimentResult result = run_experiment(lossy_config("hash", 0.10));
  EXPECT_GT(result.queries_found, 250u);
  EXPECT_GT(result.scheme_stats.timeout_retries, 0u);
}

TEST(FaultInjection, DuplicatedMessagesAreHarmless) {
  // Duplicate every 10th message: sequence checks make updates and handoffs
  // idempotent, and duplicate replies complete an RPC at most once.
  sim::Simulator simulator;
  net::Network network(simulator, 8, net::make_default_lan_model(),
                       util::Rng(5));
  network.faults().duplicate_probability = 0.1;
  platform::AgentSystem::Config platform_config;
  platform_config.service_time = sim::SimTime::micros(500);
  platform::AgentSystem system(simulator, network, platform_config);

  core::MechanismConfig mechanism;
  core::HashLocationScheme scheme(system, mechanism);

  util::Rng seeds(9);
  std::vector<platform::AgentId> targets;
  for (int i = 0; i < 15; ++i) {
    TAgent::Config config;
    config.residence = sim::SimTime::millis(300);
    config.seed = seeds.next();
    auto& agent = system.create<TAgent>(static_cast<net::NodeId>(i % 8),
                                        scheme, config);
    targets.push_back(agent.id());
  }
  simulator.run_until(sim::SimTime::seconds(10));

  QuerierAgent::Config qconfig;
  qconfig.quota = 100;
  qconfig.seed = seeds.next();
  auto& querier = system.create<QuerierAgent>(
      2, scheme, qconfig, targets, [&] { simulator.request_stop(); });
  simulator.run_until(sim::SimTime::seconds(120));

  EXPECT_EQ(querier.found(), 100u);
  EXPECT_GT(network.stats().messages_duplicated, 0u);
}

TEST(FaultInjection, PartitionHealsThroughRefresh) {
  sim::Simulator simulator;
  net::Network network(simulator, 6, net::make_default_lan_model(),
                       util::Rng(3));
  platform::AgentSystem system(simulator, network);
  core::MechanismConfig mechanism;
  core::HashLocationScheme scheme(system, mechanism);

  // A tracked agent at node 4, a querier at node 5.
  TAgent::Config tconfig;
  tconfig.seed = 11;
  auto& target = system.create<TAgent>(4, scheme, tconfig);
  target.set_mobile(false);
  simulator.run_until(sim::SimTime::millis(100));

  // Partition the querier's node from the initial IAgent's node (node 1).
  network.faults().set_partitioned(5, 1, true);

  QuerierAgent::Config qconfig;
  qconfig.quota = 5;
  qconfig.think = sim::SimTime::millis(50);
  qconfig.seed = 13;
  bool first_batch_done = false;
  auto& blocked = system.create<QuerierAgent>(
      5, scheme, qconfig, std::vector<platform::AgentId>{target.id()},
      [&] { first_batch_done = true; });
  simulator.run_until(sim::SimTime::seconds(120));
  ASSERT_TRUE(first_batch_done);
  EXPECT_GT(blocked.failed(), 0u);  // partitioned: queries could not land

  // Heal and query again: everything works without manual intervention.
  network.faults().set_partitioned(5, 1, false);
  auto& healed = system.create<QuerierAgent>(
      5, scheme, qconfig, std::vector<platform::AgentId>{target.id()},
      [&] { simulator.request_stop(); });
  simulator.run_until(sim::SimTime::seconds(240));
  EXPECT_EQ(healed.found(), 5u);
}

TEST(FaultInjection, LossyRunsAreStillDeterministic) {
  const ExperimentConfig config = lossy_config("hash", 0.05);
  const ExperimentResult a = run_experiment(config);
  const ExperimentResult b = run_experiment(config);
  EXPECT_EQ(a.events_executed, b.events_executed);
  EXPECT_EQ(a.queries_found, b.queries_found);
  EXPECT_EQ(a.location_ms.mean(), b.location_ms.mean());
}

}  // namespace
}  // namespace agentloc::workload
