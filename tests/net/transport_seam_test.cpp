// The net::Transport seam: the platform's message plane runs behind an
// interface whose default backend (SimTransport) must be bit-identical to
// calling the Network directly, and whose FaultPlan surface must keep its
// semantics when reached through the seam — including with a decorator
// interposed (the hook socket-backend instrumentation binds to).

#include "net/transport.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "core/hash_scheme.hpp"
#include "net/latency.hpp"
#include "net/network.hpp"
#include "platform/agent_system.hpp"
#include "sim/simulator.hpp"
#include "workload/querier.hpp"
#include "workload/tagent.hpp"

namespace agentloc::net {
namespace {

/// Decorator that counts every call crossing the seam.
class CountingTransport final : public ForwardingTransport {
 public:
  using ForwardingTransport::ForwardingTransport;

  TransmitPlan plan_transmission(NodeId from, NodeId to,
                                 std::size_t bytes) override {
    ++plans;
    return ForwardingTransport::plan_transmission(from, to, bytes);
  }

  bool send(NodeId from, NodeId to, std::size_t bytes,
            std::function<void()> deliver) override {
    ++sends;
    return ForwardingTransport::send(from, to, bytes, std::move(deliver));
  }

  void note_delivered(NodeId to) noexcept override {
    ++delivered;
    ForwardingTransport::note_delivered(to);
  }

  std::uint64_t plans = 0;
  std::uint64_t sends = 0;
  std::uint64_t delivered = 0;
};

TEST(TransportSeam, SimTransportForwardsEverything) {
  sim::Simulator simulator;
  Network network(simulator, 4, make_default_lan_model(), util::Rng(1));
  SimTransport transport(network);

  EXPECT_EQ(transport.node_count(), 4u);
  // faults() and stats() are the Network's own objects — the seam adds no
  // second copy that could drift.
  EXPECT_EQ(&transport.faults(), &network.faults());
  EXPECT_EQ(&transport.stats(), &network.stats());

  bool delivered = false;
  ASSERT_TRUE(transport.send(0, 1, 64, [&] { delivered = true; }));
  simulator.run();
  EXPECT_TRUE(delivered);
  EXPECT_EQ(network.stats().messages_sent, 1u);
  EXPECT_EQ(network.stats().messages_delivered, 1u);
}

TEST(TransportSeam, AgentSystemDefaultsToSimBackend) {
  sim::Simulator simulator;
  Network network(simulator, 2, make_default_lan_model(), util::Rng(1));
  platform::AgentSystem system(simulator, network);
  // The default transport is a pure view over the same Network.
  EXPECT_EQ(&system.transport().faults(), &network.faults());
  EXPECT_EQ(&system.transport().stats(), &network.stats());
  EXPECT_EQ(system.transport().node_count(), network.node_count());
}

struct RunOutcome {
  std::uint64_t found = 0;
  std::uint64_t failed = 0;
  std::uint64_t events = 0;
  NetworkStats net;
  std::uint64_t decorator_plans = 0;
  std::uint64_t decorator_sends = 0;
};

/// A fixed-seed lossy workload (drop + duplicate faults configured through
/// the *seam*), optionally with a counting decorator interposed.
RunOutcome run_fixed_seed(bool with_decorator) {
  sim::Simulator simulator;
  Network network(simulator, 8, make_default_lan_model(), util::Rng(5));
  platform::AgentSystem::Config platform_config;
  platform_config.service_time = sim::SimTime::micros(500);
  platform::AgentSystem system(simulator, network, platform_config);

  CountingTransport decorator(system.transport());
  if (with_decorator) system.set_transport(decorator);

  // Faults configured through whatever the system's transport is: this is
  // the regression net for FaultPlan semantics across the seam.
  system.transport().faults().drop_probability = 0.05;
  system.transport().faults().duplicate_probability = 0.05;

  core::MechanismConfig mechanism;
  core::HashLocationScheme scheme(system, mechanism);

  util::Rng seeds(9);
  std::vector<platform::AgentId> targets;
  for (int i = 0; i < 12; ++i) {
    workload::TAgent::Config config;
    config.residence = sim::SimTime::millis(300);
    config.seed = seeds.next();
    auto& agent = system.create<workload::TAgent>(
        static_cast<NodeId>(i % 8), scheme, config);
    targets.push_back(agent.id());
  }
  simulator.run_until(sim::SimTime::seconds(8));

  workload::QuerierAgent::Config qconfig;
  qconfig.quota = 80;
  qconfig.seed = seeds.next();
  auto& querier = system.create<workload::QuerierAgent>(
      2, scheme, qconfig, targets, [&] { simulator.request_stop(); });
  simulator.run_until(sim::SimTime::seconds(120));

  RunOutcome outcome;
  outcome.found = querier.found();
  outcome.failed = querier.failed();
  outcome.events = simulator.executed();
  outcome.net = network.stats();
  outcome.decorator_plans = decorator.plans;
  outcome.decorator_sends = decorator.sends;
  return outcome;
}

TEST(TransportSeam, ForwardingDecoratorIsBitIdentical) {
  // The tentpole's bit-identity requirement, test-enforced: interposing a
  // pass-through backend between platform and simulated network changes
  // NOTHING — same events, same deliveries, same drops/duplicates, same
  // query outcomes, byte for byte — because SimTransport adds no RNG draws
  // and preserves call order exactly.
  const RunOutcome direct = run_fixed_seed(false);
  const RunOutcome decorated = run_fixed_seed(true);

  EXPECT_EQ(direct.events, decorated.events);
  EXPECT_EQ(direct.found, decorated.found);
  EXPECT_EQ(direct.failed, decorated.failed);
  EXPECT_EQ(direct.net.messages_sent, decorated.net.messages_sent);
  EXPECT_EQ(direct.net.messages_delivered, decorated.net.messages_delivered);
  EXPECT_EQ(direct.net.messages_dropped, decorated.net.messages_dropped);
  EXPECT_EQ(direct.net.messages_duplicated,
            decorated.net.messages_duplicated);
  EXPECT_EQ(direct.net.bytes_sent, decorated.net.bytes_sent);

  // The faults actually fired (this was a lossy run), and the decorated run
  // really went through the decorator. The platform plans every
  // transmission, messages and migrations alike, so it never calls `send`.
  EXPECT_GT(direct.net.messages_dropped, 0u);
  EXPECT_GT(direct.net.messages_duplicated, 0u);
  EXPECT_EQ(direct.decorator_sends, 0u);
  EXPECT_EQ(decorated.decorator_sends, 0u);
  EXPECT_GT(decorated.decorator_plans, 0u);
}

TEST(TransportSeam, PartitionSemanticsSurviveTheSeam) {
  // set_partitioned through the transport blocks sends exactly as it does
  // through the Network, and heals the same way.
  sim::Simulator simulator;
  Network network(simulator, 4, make_default_lan_model(), util::Rng(2));
  platform::AgentSystem system(simulator, network);

  system.transport().faults().set_partitioned(0, 1, true);
  bool delivered = false;
  EXPECT_FALSE(system.transport().send(0, 1, 32, [&] { delivered = true; }));
  simulator.run();
  EXPECT_FALSE(delivered);

  system.transport().faults().set_partitioned(0, 1, false);
  EXPECT_TRUE(system.transport().send(0, 1, 32, [&] { delivered = true; }));
  simulator.run();
  EXPECT_TRUE(delivered);
}

}  // namespace
}  // namespace agentloc::net
