#include "net/network.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

namespace agentloc::net {
namespace {

Network make_fixed_network(sim::Simulator& sim, std::size_t nodes,
                           sim::SimTime latency = sim::SimTime::millis(1)) {
  return Network(sim, nodes, std::make_unique<FixedLatencyModel>(latency),
                 util::Rng(42));
}

TEST(Network, RejectsZeroNodes) {
  sim::Simulator sim;
  EXPECT_THROW(Network(sim, 0, std::make_unique<LanLatencyModel>(),
                       util::Rng(1)),
               std::invalid_argument);
}

TEST(Network, RejectsMissingModel) {
  sim::Simulator sim;
  EXPECT_THROW(Network(sim, 2, nullptr, util::Rng(1)), std::invalid_argument);
}

TEST(Network, DeliversAfterModelLatency) {
  sim::Simulator sim;
  Network network = make_fixed_network(sim, 3);
  sim::SimTime delivered_at = sim::SimTime::zero();
  network.send(0, 1, 100, [&] { delivered_at = sim.now(); });
  sim.run();
  EXPECT_EQ(delivered_at, sim::SimTime::millis(1));
}

TEST(Network, ValidatesNodeIds) {
  sim::Simulator sim;
  Network network = make_fixed_network(sim, 2);
  EXPECT_THROW(network.send(0, 5, 10, [] {}), std::out_of_range);
  EXPECT_THROW(network.send(5, 0, 10, [] {}), std::out_of_range);
}

TEST(Network, CountsStats) {
  sim::Simulator sim;
  Network network = make_fixed_network(sim, 2);
  network.send(0, 1, 100, [] {});
  network.send(1, 0, 50, [] {});
  sim.run();
  EXPECT_EQ(network.stats().messages_sent, 2u);
  EXPECT_EQ(network.stats().messages_delivered, 2u);
  EXPECT_EQ(network.stats().bytes_sent, 150u);
}

TEST(Network, DropProbabilityOneKillsRemoteTraffic) {
  sim::Simulator sim;
  Network network = make_fixed_network(sim, 2);
  network.faults().drop_probability = 1.0;
  int delivered = 0;
  EXPECT_FALSE(network.send(0, 1, 10, [&] { ++delivered; }));
  sim.run();
  EXPECT_EQ(delivered, 0);
  EXPECT_EQ(network.stats().messages_dropped, 1u);
}

TEST(Network, LoopbackNeverDropped) {
  sim::Simulator sim;
  Network network = make_fixed_network(sim, 2);
  network.faults().drop_probability = 1.0;
  int delivered = 0;
  EXPECT_TRUE(network.send(0, 0, 10, [&] { ++delivered; }));
  sim.run();
  EXPECT_EQ(delivered, 1);
}

TEST(Network, DuplicationDeliversTwice) {
  sim::Simulator sim;
  Network network = make_fixed_network(sim, 2);
  network.faults().duplicate_probability = 1.0;
  int delivered = 0;
  network.send(0, 1, 10, [&] { ++delivered; });
  sim.run();
  EXPECT_EQ(delivered, 2);
  EXPECT_EQ(network.stats().messages_duplicated, 1u);
}

TEST(Network, PartitionBlocksBothDirections) {
  sim::Simulator sim;
  Network network = make_fixed_network(sim, 3);
  network.faults().set_partitioned(0, 1, true);
  int delivered = 0;
  EXPECT_FALSE(network.send(0, 1, 10, [&] { ++delivered; }));
  EXPECT_FALSE(network.send(1, 0, 10, [&] { ++delivered; }));
  EXPECT_TRUE(network.send(0, 2, 10, [&] { ++delivered; }));
  sim.run();
  EXPECT_EQ(delivered, 1);

  network.faults().set_partitioned(1, 0, false);
  EXPECT_TRUE(network.send(0, 1, 10, [&] { ++delivered; }));
  sim.run();
  EXPECT_EQ(delivered, 2);
}

TEST(LanLatencyModel, ChargesPerByte) {
  util::Rng rng(1);
  LanLatencyModel::Config config;
  config.base = sim::SimTime::micros(100);
  config.per_byte_ns = 10.0;
  config.jitter = sim::SimTime::zero();
  LanLatencyModel model(config);
  EXPECT_EQ(model.latency(0, 1, 0, rng), sim::SimTime::micros(100));
  EXPECT_EQ(model.latency(0, 1, 1000, rng), sim::SimTime::micros(110));
}

TEST(LanLatencyModel, LoopbackIsCheap) {
  util::Rng rng(1);
  LanLatencyModel model;
  const auto local = model.latency(2, 2, 1 << 20, rng);
  const auto remote = model.latency(0, 1, 64, rng);
  EXPECT_LT(local, remote);
}

TEST(LanLatencyModel, JitterIsBounded) {
  util::Rng rng(7);
  LanLatencyModel::Config config;
  config.base = sim::SimTime::micros(100);
  config.per_byte_ns = 0.0;
  config.jitter = sim::SimTime::micros(50);
  LanLatencyModel model(config);
  for (int i = 0; i < 1000; ++i) {
    const auto value = model.latency(0, 1, 0, rng);
    EXPECT_GE(value, sim::SimTime::micros(100));
    EXPECT_LT(value, sim::SimTime::micros(150));
  }
}

TEST(UniformLatencyModel, StaysInRange) {
  util::Rng rng(9);
  UniformLatencyModel model(sim::SimTime::millis(1), sim::SimTime::millis(3));
  for (int i = 0; i < 1000; ++i) {
    const auto value = model.latency(0, 1, 0, rng);
    EXPECT_GE(value, sim::SimTime::millis(1));
    EXPECT_LE(value, sim::SimTime::millis(3));
  }
}

TEST(ClusterLatencyModel, WanHopOnlyBetweenClusters) {
  util::Rng rng(1);
  ClusterLatencyModel::Config config;
  config.cluster_size = 4;
  config.lan.jitter = sim::SimTime::zero();
  config.wan_jitter = sim::SimTime::zero();
  config.wan_hop = sim::SimTime::millis(8);
  ClusterLatencyModel model(config);

  EXPECT_TRUE(model.same_cluster(0, 3));
  EXPECT_FALSE(model.same_cluster(3, 4));

  const auto intra = model.latency(0, 3, 64, rng);
  const auto inter = model.latency(3, 4, 64, rng);
  EXPECT_EQ(inter - intra, sim::SimTime::millis(8));
  // Loopback stays cheap.
  EXPECT_LT(model.latency(5, 5, 64, rng), intra);
}

TEST(ClusterLatencyModel, WanJitterBounded) {
  util::Rng rng(2);
  ClusterLatencyModel::Config config;
  config.cluster_size = 2;
  config.lan.jitter = sim::SimTime::zero();
  config.wan_hop = sim::SimTime::millis(8);
  config.wan_jitter = sim::SimTime::millis(1);
  ClusterLatencyModel model(config);
  const auto base = model.latency(0, 1, 0, rng);  // intra, deterministic
  for (int i = 0; i < 200; ++i) {
    const auto value = model.latency(0, 2, 0, rng);
    EXPECT_GE(value, base + sim::SimTime::millis(8));
    EXPECT_LT(value, base + sim::SimTime::millis(9));
  }
}

TEST(Network, JitterCanReorderMessages) {
  sim::Simulator sim;
  Network network(sim, 2,
                  std::make_unique<UniformLatencyModel>(
                      sim::SimTime::millis(1), sim::SimTime::millis(10)),
                  util::Rng(3));
  std::vector<int> order;
  for (int i = 0; i < 20; ++i) {
    network.send(0, 1, 10, [&order, i] { order.push_back(i); });
  }
  sim.run();
  ASSERT_EQ(order.size(), 20u);
  EXPECT_FALSE(std::is_sorted(order.begin(), order.end()));
}

}  // namespace
}  // namespace agentloc::net
