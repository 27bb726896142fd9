// End-to-end tests of the location cache wired through HashLocationScheme
// (DESIGN.md §12): the optimistic jump, its stale-miss fallback, every
// deposit/invalidation source, singleflight coalescing, and — the contract
// the whole feature rests on — fixed-seed outcome equivalence between
// cache-on and cache-off runs.

#include <gtest/gtest.h>

#include <optional>
#include <tuple>
#include <vector>

#include "core/hash_scheme.hpp"
#include "test_cluster.hpp"

namespace agentloc::core {
namespace {

using testing::TestCluster;

/// A tracked agent whose moves the test controls (same shape as the
/// scheme_test one; each test TU keeps its own copy).
class Trackee : public platform::Agent {
 public:
  explicit Trackee(LocationScheme& scheme) : scheme_(scheme) {}

  std::string kind() const override { return "trackee"; }

  void on_start() override {
    scheme_.register_agent(*this, [this](bool ok) { registered = ok; });
  }

  void on_arrival(net::NodeId) override {
    scheme_.update_location(*this, [](bool) {});
  }

  void on_message(const platform::Message& message) override {
    scheme_.handle_agent_message(*this, message);
  }

  void on_delivery_failure(const platform::DeliveryFailure& failure) override {
    scheme_.handle_delivery_failure(*this, failure);
  }

  bool registered = false;

 private:
  LocationScheme& scheme_;
};

class CacheSchemeTest : public ::testing::Test {
 protected:
  CacheSchemeTest() : cluster_(8) {
    config_.stats_window = sim::SimTime::millis(500);
    config_.rehash_cooldown = sim::SimTime::seconds(1);
    config_.t_max = 40.0;
    config_.t_min = 0.0;
    config_.location_cache.enabled = true;
    // The locate() helper advances sim time 15 s per call; keep bindings
    // alive across calls unless a test explicitly shortens the TTL.
    config_.location_cache.ttl = sim::SimTime::seconds(60);
  }

  void make_scheme() {
    scheme_ = std::make_unique<HashLocationScheme>(cluster_.system, config_);
  }

  Trackee& spawn(net::NodeId node) {
    Trackee& agent = cluster_.system.create<Trackee>(node, *scheme_);
    cluster_.run_for(sim::SimTime::millis(20));
    return agent;
  }

  LocateOutcome locate(Trackee& requester, platform::AgentId target) {
    std::optional<LocateOutcome> outcome;
    scheme_->locate(requester, target,
                    [&](const LocateOutcome& o) { outcome = o; });
    cluster_.run_for(sim::SimTime::seconds(15));
    EXPECT_TRUE(outcome.has_value());
    return outcome.value_or(LocateOutcome{});
  }

  void move(Trackee& agent, net::NodeId to) {
    cluster_.system.migrate(agent.id(), to);
    cluster_.run_for(sim::SimTime::millis(30));
  }

  TestCluster cluster_;
  MechanismConfig config_;
  std::unique_ptr<HashLocationScheme> scheme_;
};

TEST_F(CacheSchemeTest, DisabledByDefault) {
  config_.location_cache.enabled = false;
  make_scheme();
  Trackee& target = spawn(3);
  Trackee& requester = spawn(5);
  EXPECT_TRUE(locate(requester, target.id()).found);
  EXPECT_TRUE(locate(requester, target.id()).found);
  const SchemeStats& stats = scheme_->stats();
  EXPECT_EQ(stats.cache_hits + stats.cache_misses, 0u);
  EXPECT_EQ(stats.optimistic_locates, 0u);
  EXPECT_EQ(scheme_->lhagent(5).location_cache(), nullptr);
}

TEST_F(CacheSchemeTest, RepeatLocateSkipsTheIAgent) {
  make_scheme();
  Trackee& target = spawn(3);
  Trackee& requester = spawn(5);

  const LocateOutcome first = locate(requester, target.id());
  EXPECT_TRUE(first.found);
  EXPECT_EQ(first.node, 3u);
  const auto rpcs_after_first = scheme_->stats().locate_rpcs;

  // The reply deposited the binding at node 5; the repeat verifies at node 3
  // directly and never touches the IAgent.
  const LocateOutcome second = locate(requester, target.id());
  EXPECT_TRUE(second.found);
  EXPECT_EQ(second.node, 3u);
  const SchemeStats& stats = scheme_->stats();
  EXPECT_EQ(stats.locate_rpcs, rpcs_after_first);
  EXPECT_EQ(stats.optimistic_locates, 1u);
  EXPECT_GE(stats.cache_hits, 1u);
}

TEST_F(CacheSchemeTest, StaleBindingFallsBackToAuthority) {
  make_scheme();
  Trackee& target = spawn(3);
  Trackee& requester = spawn(5);
  ASSERT_TRUE(locate(requester, target.id()).found);

  // The cached binding now points at node 3; the move makes it stale.
  move(target, 6);
  const LocateOutcome outcome = locate(requester, target.id());
  EXPECT_TRUE(outcome.found);
  EXPECT_EQ(outcome.node, 6u);  // the fallback returned the fresh answer
  EXPECT_GE(scheme_->stats().cache_stale_hits, 1u);
}

TEST_F(CacheSchemeTest, MoverReportSeedsItsNodesCache) {
  make_scheme();
  Trackee& target = spawn(3);
  Trackee& requester = spawn(5);
  // The arrival report at node 5 deposits the binding there for free: the
  // co-located requester's *first* locate is already an optimistic hit.
  move(target, 5);
  const LocateOutcome outcome = locate(requester, target.id());
  EXPECT_TRUE(outcome.found);
  EXPECT_EQ(outcome.node, 5u);
  EXPECT_GE(scheme_->stats().optimistic_locates, 1u);
  EXPECT_EQ(scheme_->stats().locate_rpcs, 0u);
}

TEST_F(CacheSchemeTest, BatchedUpdatesSeedTheCacheToo) {
  config_.update_batching = true;
  make_scheme();
  Trackee& target = spawn(3);
  Trackee& requester = spawn(5);
  move(target, 5);
  cluster_.run_for(sim::SimTime::seconds(1));  // let the batch flush
  const LocateOutcome outcome = locate(requester, target.id());
  EXPECT_TRUE(outcome.found);
  EXPECT_EQ(outcome.node, 5u);
  EXPECT_GE(scheme_->stats().optimistic_locates, 1u);
}

TEST_F(CacheSchemeTest, WatchNotifyDepositsTheCarriedBinding) {
  make_scheme();
  Trackee& target = spawn(3);
  Trackee& watcher = spawn(5);
  std::optional<HashLocationScheme::WatchOutcome> fired;
  scheme_->watch(watcher, target.id(),
                 [&](const HashLocationScheme::WatchOutcome& o) { fired = o; });
  cluster_.run_for(sim::SimTime::millis(50));
  move(target, 6);
  ASSERT_TRUE(fired.has_value());
  ASSERT_TRUE(fired->fired);

  const auto rpcs_before = scheme_->stats().locate_rpcs;
  const LocateOutcome outcome = locate(watcher, target.id());
  EXPECT_TRUE(outcome.found);
  EXPECT_EQ(outcome.node, 6u);
  EXPECT_EQ(scheme_->stats().locate_rpcs, rpcs_before);
  EXPECT_GE(scheme_->stats().optimistic_locates, 1u);
}

TEST_F(CacheSchemeTest, DeregisteredTargetNotFoundDespiteCachedBinding) {
  make_scheme();
  Trackee& target = spawn(3);
  Trackee& requester = spawn(5);
  const platform::AgentId id = target.id();
  ASSERT_TRUE(locate(requester, id).found);  // binding cached at node 5

  scheme_->deregister_agent(target);
  cluster_.run_for(sim::SimTime::millis(50));
  cluster_.system.dispose(id);

  // The verify probe at node 3 refutes the stale binding; the authoritative
  // fallback answers unknown. Never a wrong answer from the cache.
  const LocateOutcome outcome = locate(requester, id);
  EXPECT_FALSE(outcome.found);
  EXPECT_GE(scheme_->stats().cache_stale_hits, 1u);
}

TEST_F(CacheSchemeTest, TtlExpiryForcesAuthoritativeRefetch) {
  config_.location_cache.ttl = sim::SimTime::millis(200);
  make_scheme();
  Trackee& target = spawn(3);
  Trackee& requester = spawn(5);
  ASSERT_TRUE(locate(requester, target.id()).found);
  const auto optimistic_before = scheme_->stats().optimistic_locates;

  // locate() already ran the clock far past the TTL; the binding is gone.
  const LocateOutcome outcome = locate(requester, target.id());
  EXPECT_TRUE(outcome.found);
  EXPECT_EQ(scheme_->stats().optimistic_locates, optimistic_before);
  EXPECT_GE(scheme_->stats().cache_misses, 1u);
}

TEST_F(CacheSchemeTest, SingleflightCoalescesConcurrentLocates) {
  config_.location_cache.enabled = false;
  config_.locate_singleflight = true;
  make_scheme();
  Trackee& target = spawn(3);
  Trackee& requester_a = spawn(5);
  Trackee& requester_b = spawn(5);

  std::vector<LocateOutcome> outcomes;
  for (int i = 0; i < 2; ++i) {
    scheme_->locate(requester_a, target.id(),
                    [&](const LocateOutcome& o) { outcomes.push_back(o); });
    scheme_->locate(requester_b, target.id(),
                    [&](const LocateOutcome& o) { outcomes.push_back(o); });
  }
  cluster_.run_for(sim::SimTime::seconds(5));

  ASSERT_EQ(outcomes.size(), 4u);
  for (const LocateOutcome& outcome : outcomes) {
    EXPECT_TRUE(outcome.found);
    EXPECT_EQ(outcome.node, 3u);
  }
  // One wire RPC served all four same-node waiters.
  EXPECT_EQ(scheme_->stats().locate_rpcs, 1u);
  EXPECT_EQ(scheme_->stats().locates_coalesced, 3u);
}

TEST_F(CacheSchemeTest, SingleflightKeysOnRequesterNode) {
  config_.location_cache.enabled = false;
  config_.locate_singleflight = true;
  make_scheme();
  Trackee& target = spawn(3);
  Trackee& requester_a = spawn(5);
  Trackee& requester_b = spawn(6);  // different node: no coalescing

  int completed = 0;
  scheme_->locate(requester_a, target.id(),
                  [&](const LocateOutcome&) { ++completed; });
  scheme_->locate(requester_b, target.id(),
                  [&](const LocateOutcome&) { ++completed; });
  cluster_.run_for(sim::SimTime::seconds(5));
  EXPECT_EQ(completed, 2);
  EXPECT_EQ(scheme_->stats().locate_rpcs, 2u);
  EXPECT_EQ(scheme_->stats().locates_coalesced, 0u);
}

// --- fixed-seed equivalence -------------------------------------------------

using Triple = std::tuple<platform::AgentId, bool, net::NodeId>;

struct ScenarioResult {
  std::vector<Triple> outcomes;
  SchemeStats stats;
};

/// One deterministic churn-then-query scenario: targets move through a fixed
/// itinerary with locates interleaved, then hold still for a final query
/// sweep. The interleaved AND final (target, found, node) triples must not
/// depend on whether the cache is on — every optimistic answer is verified
/// at the node itself, and every refuted one falls back to the authority.
ScenarioResult run_scenario(MechanismConfig config) {
  TestCluster cluster(8);
  HashLocationScheme scheme(cluster.system, config);
  auto settle = [&](sim::SimTime span) {
    cluster.simulator.run_until(cluster.simulator.now() + span);
  };

  std::vector<Trackee*> targets;
  for (net::NodeId node = 1; node <= 3; ++node) {
    targets.push_back(&cluster.system.create<Trackee>(node, scheme));
  }
  std::vector<Trackee*> requesters;
  for (net::NodeId node = 4; node <= 5; ++node) {
    requesters.push_back(&cluster.system.create<Trackee>(node, scheme));
  }
  settle(sim::SimTime::millis(100));

  ScenarioResult result;
  auto locate_all = [&] {
    for (Trackee* requester : requesters) {
      for (Trackee* target : targets) {
        std::optional<LocateOutcome> outcome;
        scheme.locate(*requester, target->id(),
                      [&](const LocateOutcome& o) { outcome = o; });
        settle(sim::SimTime::seconds(10));
        EXPECT_TRUE(outcome.has_value());
        const LocateOutcome o = outcome.value_or(LocateOutcome{});
        result.outcomes.emplace_back(target->id(), o.found, o.node);
      }
    }
  };

  locate_all();  // cold caches
  for (int round = 0; round < 3; ++round) {
    for (std::size_t i = 0; i < targets.size(); ++i) {
      const auto to = static_cast<net::NodeId>((2 * round + 3 * i + 1) % 8);
      cluster.system.migrate(targets[i]->id(), to);
      settle(sim::SimTime::millis(50));
    }
    locate_all();  // warm (and partially stale) caches
  }
  result.stats = scheme.stats();
  return result;
}

TEST(CacheEquivalenceTest, FixedSeedOutcomesMatchCacheOnAndOff) {
  MechanismConfig config;
  config.stats_window = sim::SimTime::millis(500);
  config.rehash_cooldown = sim::SimTime::seconds(1);
  config.t_max = 40.0;
  config.t_min = 0.0;

  MechanismConfig cached = config;
  cached.location_cache.enabled = true;
  cached.location_cache.ttl = sim::SimTime::seconds(600);  // outlives the run

  const ScenarioResult off = run_scenario(config);
  const ScenarioResult on = run_scenario(cached);

  // Same locate outcomes, element for element.
  ASSERT_EQ(off.outcomes.size(), on.outcomes.size());
  for (std::size_t i = 0; i < off.outcomes.size(); ++i) {
    EXPECT_EQ(off.outcomes[i], on.outcomes[i]) << "locate #" << i;
  }
  EXPECT_EQ(off.stats.locates_found, on.stats.locates_found);
  EXPECT_EQ(off.stats.locates_failed, on.stats.locates_failed);

  // ...and the cached run really did use the cache to get there.
  EXPECT_GT(on.stats.cache_hits, 0u);
  EXPECT_GT(on.stats.optimistic_locates, 0u);
  EXPECT_GT(on.stats.cache_stale_hits, 0u);  // the moves made some stale
  EXPECT_LT(on.stats.locate_rpcs, off.stats.locate_rpcs);
  EXPECT_EQ(off.stats.cache_hits, 0u);
  EXPECT_EQ(off.stats.optimistic_locates, 0u);
}

}  // namespace
}  // namespace agentloc::core
