// System-wide invariants, checked repeatedly while a live workload runs:
//
//  I1. The leaf predicates of the primary hash copy partition the id space:
//      every id matches exactly one leaf predicate, and that leaf is the one
//      lookup returns.
//  I2. Every registered, settled mobile agent is locatable, and the answer
//      matches platform ground truth once updates quiesce.
//  I3. Entry conservation: with mobility paused and handoffs drained, the
//      IAgents' tables together hold exactly one entry per live TAgent.
//  I4. Secondary copies are always *some* historical version of the primary
//      (their version never exceeds the primary's).
//  I5. Message accounting balances: the platform never loses a message
//      silently — everything sent is processed, bounced, or still in flight,
//      so `sent >= processed + bounced` at every instant.

#include <gtest/gtest.h>

#include <cstring>

#include "core/hash_scheme.hpp"
#include "core/iagent.hpp"
#include "platform/agent_system.hpp"
#include "workload/querier.hpp"
#include "workload/tagent.hpp"

namespace agentloc::workload {
namespace {

class InvariantsTest : public ::testing::Test {
 protected:
  InvariantsTest()
      : network_(simulator_, 10, net::make_default_lan_model(),
                 util::Rng(33)),
        system_(simulator_, network_, platform_config()),
        scheme_(system_, mechanism_config()) {}

  static platform::AgentSystem::Config platform_config() {
    platform::AgentSystem::Config config;
    config.service_time = sim::SimTime::micros(400);
    return config;
  }

  static core::MechanismConfig mechanism_config() {
    core::MechanismConfig config;
    config.rehash_cooldown = sim::SimTime::millis(800);
    config.t_max = 25.0;
    config.t_min = 2.0;
    return config;
  }

  void check_predicates_partition_id_space() {
    const auto& tree = scheme_.hagent().tree();
    util::Rng probe(99);
    for (int i = 0; i < 200; ++i) {
      const platform::AgentId id = probe.next();
      const auto owner = tree.lookup_id(id).iagent;
      std::size_t matches = 0;
      for (const auto leaf : tree.leaves()) {
        const auto predicate = core::predicate_of(tree, leaf);
        if (predicate.matches(id)) {
          ++matches;
          EXPECT_EQ(leaf, owner);
        }
      }
      ASSERT_EQ(matches, 1u) << "id " << id;
    }
  }

  std::size_t total_iagent_entries() {
    std::size_t total = 0;
    for (const auto leaf : scheme_.hagent().tree().leaves()) {
      auto* iagent = dynamic_cast<core::IAgent*>(system_.find(leaf));
      EXPECT_NE(iagent, nullptr);
      if (iagent != nullptr) total += iagent->entry_count();
    }
    return total;
  }

  sim::Simulator simulator_;
  net::Network network_;
  platform::AgentSystem system_;
  core::HashLocationScheme scheme_;
};

TEST_F(InvariantsTest, HoldThroughoutAChurnyRun) {
  util::Rng seeds(7);
  std::vector<TAgent*> population;
  for (int i = 0; i < 40; ++i) {
    TAgent::Config config;
    config.residence = sim::SimTime::millis(200);
    config.seed = seeds.next();
    population.push_back(&system_.create<TAgent>(
        static_cast<net::NodeId>(i % 10), scheme_, config));
  }

  // I1 + I4, sampled across the whole run while rehashes happen.
  for (int epoch = 0; epoch < 12; ++epoch) {
    simulator_.run_until(simulator_.now() + sim::SimTime::seconds(2));
    check_predicates_partition_id_space();
    const auto primary_version = scheme_.hagent().tree().version();
    for (net::NodeId node = 0; node < 10; ++node) {
      EXPECT_LE(scheme_.lhagent(node).version(), primary_version);
    }
  }
  EXPECT_GT(scheme_.hagent().iagent_count(), 1u);

  // Pause mobility and drain in-flight updates/handoffs.
  for (auto* agent : population) agent->set_mobile(false);
  simulator_.run_until(simulator_.now() + sim::SimTime::seconds(5));

  // I3: exactly one entry per live TAgent, spread over the IAgents.
  EXPECT_EQ(total_iagent_entries(), population.size());

  // I2: every agent locatable at its true node.
  std::vector<platform::AgentId> targets;
  for (auto* agent : population) targets.push_back(agent->id());
  QuerierAgent::Config qconfig;
  qconfig.quota = 120;
  qconfig.think = sim::SimTime::millis(10);
  qconfig.seed = seeds.next();
  auto& querier = system_.create<QuerierAgent>(
      2, scheme_, qconfig, targets, [&] { simulator_.request_stop(); });
  simulator_.run_until(simulator_.now() + sim::SimTime::seconds(120));
  EXPECT_EQ(querier.found(), 120u);
  EXPECT_EQ(querier.wrong_location(), 0u);  // population is stationary now
}

TEST_F(InvariantsTest, MessageAccountingBalancesThroughoutARun) {
  util::Rng seeds(23);
  std::vector<TAgent*> population;
  for (int i = 0; i < 30; ++i) {
    TAgent::Config config;
    config.residence = sim::SimTime::millis(200);
    config.seed = seeds.next();
    population.push_back(&system_.create<TAgent>(
        static_cast<net::NodeId>(i % 10), scheme_, config));
  }

  // I5, sampled while registrations, updates, rehashes, and handoffs churn.
  for (int epoch = 0; epoch < 10; ++epoch) {
    simulator_.run_until(simulator_.now() + sim::SimTime::seconds(1));
    const auto& stats = system_.stats();
    ASSERT_GE(stats.messages_sent,
              stats.messages_processed + stats.messages_bounced)
        << "epoch " << epoch;
  }

  // Quiesce; on this loss-free network the residue is only what was still
  // in flight or queued at the sampling instant, so the bound stays tight.
  for (auto* agent : population) agent->set_mobile(false);
  simulator_.run_until(simulator_.now() + sim::SimTime::seconds(5));
  const auto& stats = system_.stats();
  EXPECT_GT(stats.messages_sent, 0u);
  EXPECT_GE(stats.messages_sent,
            stats.messages_processed + stats.messages_bounced);
  // Nearly everything has drained: allow only a handful of messages still
  // riding timers (idle-merge probes and the like).
  EXPECT_LE(stats.messages_sent -
                (stats.messages_processed + stats.messages_bounced),
            8u);
}

// A fixed-seed run with update batching enabled must be self-reproducible:
// the batcher's timers and flush-time target resolution ride the same
// deterministic event order as everything else.
struct RunFingerprint {
  std::uint64_t sent = 0;
  std::uint64_t processed = 0;
  std::uint64_t flushes = 0;
  std::uint64_t messages_coalesced = 0;
  std::uint64_t found = 0;
  std::uint64_t wrong = 0;
  std::uint64_t latency_mean_bits = 0;

  bool operator==(const RunFingerprint&) const = default;
};

RunFingerprint run_batched_once(std::uint64_t seed) {
  util::Rng master(seed);
  sim::Simulator simulator;
  net::Network network(simulator, 6, net::make_default_lan_model(),
                       master.fork());
  platform::AgentSystem system(simulator, network);

  core::MechanismConfig mechanism;
  mechanism.update_batching = true;
  mechanism.batch_flush_interval = sim::SimTime::millis(40);
  core::HashLocationScheme scheme(system, mechanism);

  std::vector<platform::AgentId> targets;
  for (int i = 0; i < 24; ++i) {
    TAgent::Config config;
    config.residence = sim::SimTime::millis(150);
    config.seed = master.next();
    targets.push_back(
        system.create<TAgent>(static_cast<net::NodeId>(i % 6), scheme, config)
            .id());
  }
  QuerierAgent::Config qconfig;
  qconfig.quota = 0;
  qconfig.think = sim::SimTime::millis(25);
  qconfig.seed = master.next();
  auto& querier =
      system.create<QuerierAgent>(1, scheme, qconfig, targets);
  simulator.run_until(sim::SimTime::seconds(8));

  RunFingerprint fingerprint;
  fingerprint.sent = system.stats().messages_sent;
  fingerprint.processed = system.stats().messages_processed;
  fingerprint.flushes = system.stats().batch_flushes;
  fingerprint.messages_coalesced = system.stats().messages_coalesced;
  fingerprint.found = querier.found();
  fingerprint.wrong = querier.wrong_location();
  const double mean = querier.latencies_ms().mean();
  std::memcpy(&fingerprint.latency_mean_bits, &mean, sizeof(mean));
  return fingerprint;
}

TEST(BatchedDeterminism, FixedSeedBatchedRunIsSelfReproducible) {
  const RunFingerprint first = run_batched_once(91);
  const RunFingerprint second = run_batched_once(91);
  EXPECT_GT(first.flushes, 0u);
  EXPECT_GT(first.messages_coalesced, 0u);
  EXPECT_GT(first.found, 0u);
  EXPECT_EQ(first, second);
}

TEST_F(InvariantsTest, EntryConservationAcrossForcedMergeCycle) {
  util::Rng seeds(17);
  std::vector<TAgent*> population;
  for (int i = 0; i < 30; ++i) {
    TAgent::Config config;
    config.residence = sim::SimTime::millis(150);
    config.seed = seeds.next();
    population.push_back(&system_.create<TAgent>(
        static_cast<net::NodeId>(i % 10), scheme_, config));
  }
  // Grow under load…
  simulator_.run_until(sim::SimTime::seconds(15));
  const auto peak = scheme_.hagent().iagent_count();
  EXPECT_GT(peak, 1u);

  // …then go idle so merges shrink the population back.
  for (auto* agent : population) agent->set_mobile(false);
  simulator_.run_until(simulator_.now() + sim::SimTime::seconds(20));
  EXPECT_LT(scheme_.hagent().iagent_count(), peak);

  // Every entry survived every handoff and retirement.
  EXPECT_EQ(total_iagent_entries(), population.size());
  check_predicates_partition_id_space();
}

}  // namespace
}  // namespace agentloc::workload
