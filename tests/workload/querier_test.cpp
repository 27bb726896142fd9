#include "workload/querier.hpp"

#include <gtest/gtest.h>

#include "core/home_scheme.hpp"
#include "net/network.hpp"
#include "platform/agent_system.hpp"
#include "sim/simulator.hpp"
#include "workload/tagent.hpp"

namespace agentloc::workload {
namespace {

class QuerierTest : public ::testing::Test {
 protected:
  QuerierTest()
      : network_(simulator_, 8,
                 std::make_unique<net::FixedLatencyModel>(
                     sim::SimTime::millis(1)),
                 util::Rng(3)),
        system_(simulator_, network_),
        scheme_(system_, /*registries=*/1) {}

  std::vector<platform::AgentId> spawn_targets(int count,
                                               bool mobile = false) {
    std::vector<platform::AgentId> ids;
    for (int i = 0; i < count; ++i) {
      TAgent::Config config;
      config.mobile = mobile;
      config.residence = sim::SimTime::millis(200);
      config.seed = 50 + static_cast<std::uint64_t>(i);
      ids.push_back(system_
                        .create<TAgent>(static_cast<net::NodeId>(i % 8),
                                        scheme_, config)
                        .id());
    }
    simulator_.run_until(simulator_.now() + sim::SimTime::millis(50));
    return ids;
  }

  sim::Simulator simulator_;
  net::Network network_;
  platform::AgentSystem system_;
  core::HomeRegistryLocationScheme scheme_;
};

TEST_F(QuerierTest, CompletesQuotaAndSignals) {
  const auto targets = spawn_targets(5);
  QuerierAgent::Config config;
  config.quota = 20;
  config.think = sim::SimTime::millis(10);
  config.seed = 1;
  bool completed = false;
  auto& querier = system_.create<QuerierAgent>(0, scheme_, config, targets,
                                               [&] { completed = true; });
  simulator_.run_until(sim::SimTime::seconds(60));
  EXPECT_TRUE(completed);
  EXPECT_TRUE(querier.done());
  EXPECT_EQ(querier.latencies_ms().count(), 20u);
  EXPECT_EQ(querier.found(), 20u);
  EXPECT_EQ(querier.failed(), 0u);
}

TEST_F(QuerierTest, LatenciesArePositiveAndPlausible) {
  const auto targets = spawn_targets(5);
  QuerierAgent::Config config;
  config.quota = 10;
  config.seed = 2;
  auto& querier = system_.create<QuerierAgent>(0, scheme_, config, targets,
                                               nullptr);
  simulator_.run_until(sim::SimTime::seconds(30));
  ASSERT_EQ(querier.latencies_ms().count(), 10u);
  // Fixed 1 ms links + default 400 us service each way: ~3 ms round trip.
  EXPECT_GT(querier.latencies_ms().min(), 2.0);
  EXPECT_LT(querier.latencies_ms().max(), 10.0);
  EXPECT_DOUBLE_EQ(querier.attempts().mean(), 1.0);
}

TEST_F(QuerierTest, EmptyTargetListCompletesImmediately) {
  QuerierAgent::Config config;
  config.quota = 10;
  bool completed = false;
  system_.create<QuerierAgent>(0, scheme_, config,
                               std::vector<platform::AgentId>{},
                               [&] { completed = true; });
  simulator_.run_until(sim::SimTime::seconds(1));
  EXPECT_TRUE(completed);
}

TEST_F(QuerierTest, UnlimitedQuotaRunsUntilStopped) {
  const auto targets = spawn_targets(3);
  QuerierAgent::Config config;
  config.quota = 0;  // unlimited
  config.think = sim::SimTime::millis(5);
  config.seed = 3;
  auto& querier =
      system_.create<QuerierAgent>(0, scheme_, config, targets, nullptr);
  simulator_.run_until(sim::SimTime::seconds(5));
  EXPECT_FALSE(querier.done());
  EXPECT_GT(querier.latencies_ms().count(), 100u);
}

TEST_F(QuerierTest, WrongLocationCountedAgainstGroundTruth) {
  // Highly mobile targets: some answers are outdated by arrival. This is a
  // staleness *measurement*, not a failure.
  const auto targets = spawn_targets(5, /*mobile=*/true);
  QuerierAgent::Config config;
  config.quota = 200;
  config.think = sim::SimTime::millis(5);
  config.seed = 4;
  auto& querier =
      system_.create<QuerierAgent>(0, scheme_, config, targets, nullptr);
  simulator_.run_until(sim::SimTime::seconds(120));
  EXPECT_EQ(querier.found() + querier.failed(), 200u);
  EXPECT_LT(querier.wrong_location(), querier.found());
}

TEST_F(QuerierTest, ZipfSkewConcentratesTargets) {
  const auto targets = spawn_targets(8);
  QuerierAgent::Config config;
  config.quota = 300;
  config.think = sim::SimTime::millis(1);
  config.target_skew = 2.0;
  config.seed = 5;
  auto& querier =
      system_.create<QuerierAgent>(0, scheme_, config, targets, nullptr);
  simulator_.run_until(sim::SimTime::seconds(60));
  // All queries found; skew itself is exercised through the zipf path.
  EXPECT_EQ(querier.found(), 300u);
}

}  // namespace
}  // namespace agentloc::workload
