// End-to-end tests of the two location schemes through the LocationScheme
// interface, with stationary probe agents as the tracked population (mobility
// is driven explicitly so every staleness scenario is reproducible).

#include <gtest/gtest.h>

#include <optional>
#include <set>

#include "core/forwarding_scheme.hpp"
#include "core/hash_scheme.hpp"
#include "core/home_scheme.hpp"
#include "test_cluster.hpp"

namespace agentloc::core {
namespace {

using testing::TestCluster;

/// A tracked agent whose moves the test controls.
class Trackee : public platform::Agent {
 public:
  explicit Trackee(LocationScheme& scheme) : scheme_(scheme) {}

  void on_start() override {
    scheme_.register_agent(*this, [this](bool ok) { registered = ok; });
  }

  void on_arrival(net::NodeId) override {
    scheme_.update_location(*this, [this](bool ok) { updated = ok; });
  }

  void on_message(const platform::Message& message) override {
    scheme_.handle_agent_message(*this, message);
  }

  void on_delivery_failure(const platform::DeliveryFailure& failure) override {
    scheme_.handle_delivery_failure(*this, failure);
  }

  bool registered = false;
  bool updated = false;

 private:
  LocationScheme& scheme_;
};

class SchemeTest : public ::testing::Test {
 protected:
  SchemeTest() : cluster_(8) {
    config_.rehash_cooldown = sim::SimTime::seconds(1);
    config_.t_max = 40.0;
    config_.t_min = 0.0;  // no auto-merges unless a test wants them
  }

  void make_hash_scheme() {
    scheme_ = std::make_unique<HashLocationScheme>(cluster_.system, config_);
  }

  void make_scheme_by_name(const std::string& name) {
    if (name == "hash") {
      scheme_ = std::make_unique<HashLocationScheme>(cluster_.system, config_);
    } else if (name == "centralized") {
      scheme_ = std::make_unique<HomeRegistryLocationScheme>(
          cluster_.system, /*registries=*/1);
    } else if (name == "home") {
      scheme_ = std::make_unique<HomeRegistryLocationScheme>(
          cluster_.system, cluster_.system.node_count());
    } else {
      scheme_ = std::make_unique<ForwardingLocationScheme>(cluster_.system);
    }
  }

  Trackee& spawn_trackee(net::NodeId node) {
    Trackee& agent = cluster_.system.create<Trackee>(node, *scheme_);
    cluster_.run_for(sim::SimTime::millis(20));
    return agent;
  }

  LocateOutcome locate_from(net::NodeId node, platform::AgentId target) {
    Trackee& requester = cluster_.system.create<Trackee>(node, *scheme_);
    cluster_.run_for(sim::SimTime::millis(20));
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

  HashLocationScheme& hash_scheme() {
    return static_cast<HashLocationScheme&>(*scheme_);
  }

  TestCluster cluster_;
  MechanismConfig config_;
  std::unique_ptr<LocationScheme> scheme_;
};

// --- shared behaviours, run against both schemes ---------------------------

class BothSchemesTest : public SchemeTest,
                        public ::testing::WithParamInterface<const char*> {
 protected:
  void SetUp() override { make_scheme_by_name(GetParam()); }
};

TEST_P(BothSchemesTest, RegisterThenLocate) {
  Trackee& target = spawn_trackee(3);
  EXPECT_TRUE(target.registered);
  const LocateOutcome outcome = locate_from(5, target.id());
  EXPECT_TRUE(outcome.found);
  EXPECT_EQ(outcome.node, 3u);
  // Forwarding needs two request/response cycles by construction (name
  // service + chase hop); everything else resolves in one.
  EXPECT_LE(outcome.attempts, 2);
}

TEST_P(BothSchemesTest, LocateTracksMoves) {
  Trackee& target = spawn_trackee(3);
  move(target, 6);
  EXPECT_TRUE(target.updated);
  EXPECT_EQ(locate_from(5, target.id()).node, 6u);
  move(target, 2);
  EXPECT_EQ(locate_from(5, target.id()).node, 2u);
}

TEST_P(BothSchemesTest, LocateUnknownAgentFails) {
  spawn_trackee(3);
  const LocateOutcome outcome = locate_from(5, 0xabadcafe12345678ull);
  EXPECT_FALSE(outcome.found);
  EXPECT_GE(outcome.attempts, 1);
  EXPECT_GE(scheme_->stats().locates_failed, 1u);
}

TEST_P(BothSchemesTest, DeregisteredAgentNotFound) {
  Trackee& target = spawn_trackee(3);
  const platform::AgentId id = target.id();
  EXPECT_TRUE(locate_from(5, id).found);
  scheme_->deregister_agent(target);
  cluster_.run_for(sim::SimTime::millis(50));
  cluster_.system.dispose(id);
  const LocateOutcome outcome = locate_from(5, id);
  EXPECT_FALSE(outcome.found);
}

TEST_P(BothSchemesTest, SelfLocateWorks) {
  Trackee& target = spawn_trackee(3);
  std::optional<LocateOutcome> outcome;
  scheme_->locate(target, target.id(),
                  [&](const LocateOutcome& o) { outcome = o; });
  cluster_.run_for(sim::SimTime::seconds(5));
  ASSERT_TRUE(outcome.has_value());
  EXPECT_TRUE(outcome->found);
  EXPECT_EQ(outcome->node, 3u);
}

INSTANTIATE_TEST_SUITE_P(Schemes, BothSchemesTest,
                         ::testing::Values("hash", "centralized", "home",
                                           "forwarding"));

// --- schemes whose trackers hold a core::LocationTable ---------------------

class TableSchemesTest : public BothSchemesTest {};

TEST_P(TableSchemesTest, ReRegisteredAgentIsFound) {
  // The deregister leaves a tombstone at its seq; the client's seq counter
  // survives it, so the re-registration lands above the tombstone and the
  // tracker accepts it.
  Trackee& target = spawn_trackee(3);
  ASSERT_TRUE(target.registered);
  scheme_->deregister_agent(target);
  cluster_.run_for(sim::SimTime::millis(50));
  ASSERT_FALSE(locate_from(5, target.id()).found) << "deregister not landed";

  target.registered = false;
  scheme_->register_agent(target,
                          [&target](bool ok) { target.registered = ok; });
  cluster_.run_for(sim::SimTime::millis(50));
  EXPECT_TRUE(target.registered);
  const LocateOutcome outcome = locate_from(5, target.id());
  EXPECT_TRUE(outcome.found);
  EXPECT_EQ(outcome.node, 3u);
}

INSTANTIATE_TEST_SUITE_P(Schemes, TableSchemesTest,
                         ::testing::Values("hash", "centralized", "home"));

// --- hash-scheme-specific behaviours ---------------------------------------

class HashSchemeTest : public SchemeTest {
 protected:
  void SetUp() override { make_hash_scheme(); }

  /// Drive a split by hammering the responsible IAgent with locates.
  void force_split(platform::AgentId hot_target) {
    Trackee& driver = cluster_.system.create<Trackee>(0, *scheme_);
    cluster_.run_for(sim::SimTime::millis(20));
    for (int round = 0; round < 40; ++round) {
      for (int i = 0; i < 8; ++i) {
        scheme_->locate(driver, hot_target + static_cast<std::uint64_t>(i),
                        [](const LocateOutcome&) {});
      }
      cluster_.run_for(sim::SimTime::millis(100));
      if (hash_scheme().hagent().iagent_count() > 1) break;
    }
  }
};

TEST_F(HashSchemeTest, OverloadSplitsAndLocatesKeepWorking) {
  Trackee& target = spawn_trackee(3);
  force_split(0x4242424242424242ull);
  EXPECT_GT(hash_scheme().hagent().iagent_count(), 1u);
  const LocateOutcome outcome = locate_from(5, target.id());
  EXPECT_TRUE(outcome.found);
  EXPECT_EQ(outcome.node, 3u);
}

TEST_F(HashSchemeTest, StaleSecondaryCopySelfHealsOnLocate) {
  Trackee& target = spawn_trackee(3);
  force_split(0x4242424242424242ull);
  // Node 7's LHAgent never refreshed; its copy predates the split.
  LHAgent& stale_copy = hash_scheme().lhagent(7);
  ASSERT_LT(stale_copy.version(), hash_scheme().hagent().tree().version());

  // While the copy is still stale, find an id it routes differently from
  // the primary (the split must have moved some region).
  std::optional<platform::AgentId> probe;
  for (std::uint64_t v = 0; v < 256 && !probe; ++v) {
    const platform::AgentId id = v << 56;
    if (stale_copy.resolve(id).agent !=
        hash_scheme().hagent().tree().lookup_id(id).iagent) {
      probe = id;
    }
  }
  ASSERT_TRUE(probe.has_value()) << "split did not change any mapping?";

  // A locate from node 7 must still find the target even if the stale copy
  // routes it to the wrong IAgent.
  const LocateOutcome outcome = locate_from(7, target.id());
  EXPECT_TRUE(outcome.found);
  EXPECT_EQ(outcome.node, 3u);

  // Probing the moved region forces the wrong-IAgent bounce and the refresh
  // of node 7's copy (paper §4.3).
  locate_from(7, *probe);  // not registered: outcome is 'not found'
  EXPECT_EQ(stale_copy.version(), hash_scheme().hagent().tree().version());
}

TEST_F(HashSchemeTest, StaleUpdateTriggersNoticeAndResend) {
  Trackee& target = spawn_trackee(3);
  force_split(0x4242424242424242ull);
  const auto stale_before = scheme_->stats().stale_retries;
  // Move the target repeatedly; each arrival reports through its node's
  // (possibly stale) LHAgent. Any wrong-IAgent update must self-correct.
  for (net::NodeId node = 4; node < 8; ++node) move(target, node);
  cluster_.run_for(sim::SimTime::seconds(1));
  const LocateOutcome outcome = locate_from(2, target.id());
  EXPECT_TRUE(outcome.found);
  EXPECT_EQ(outcome.node, 7u);
  // At least one of those updates should have hit a stale mapping.
  EXPECT_GE(scheme_->stats().stale_retries + scheme_->stats().delivery_retries,
            stale_before);
}

TEST_F(HashSchemeTest, MergeShrinksBackWhenIdle) {
  config_.t_min = 5.0;
  config_.rehash_cooldown = sim::SimTime::millis(600);
  scheme_ = nullptr;
  make_hash_scheme();
  Trackee& target = spawn_trackee(3);
  force_split(0x4242424242424242ull);
  const auto peak = hash_scheme().hagent().iagent_count();
  ASSERT_GT(peak, 1u);
  // Go idle; underloaded IAgents ask to merge once their cooldown passes.
  cluster_.run_for(sim::SimTime::seconds(10));
  EXPECT_LT(hash_scheme().hagent().iagent_count(), peak);
  EXPECT_GE(hash_scheme().hagent().stats().simple_merges +
                hash_scheme().hagent().stats().complex_merges,
            1u);
  // Entries survived the merges.
  const LocateOutcome outcome = locate_from(5, target.id());
  EXPECT_TRUE(outcome.found);
  EXPECT_EQ(outcome.node, 3u);
}

TEST_F(HashSchemeTest, LocateSurvivesIAgentMigration) {
  config_.locality_migration = true;
  scheme_ = nullptr;
  make_hash_scheme();
  // Several trackees clustered on node 6 pull the (single) IAgent there.
  std::vector<Trackee*> population;
  for (int i = 0; i < 6; ++i) population.push_back(&spawn_trackee(6));
  cluster_.run_for(sim::SimTime::seconds(2));
  const auto iagent_id = hash_scheme().hagent().tree().leaves().front();
  EXPECT_EQ(cluster_.system.node_of(iagent_id), 6u);
  // Node 2's copy still records the IAgent's birth node; locating from there
  // exercises the delivery-failure → refresh → retry path.
  const LocateOutcome outcome = locate_from(2, population.front()->id());
  EXPECT_TRUE(outcome.found);
  EXPECT_EQ(outcome.node, 6u);
}

TEST_F(HashSchemeTest, TrackerCountFollowsTree) {
  EXPECT_EQ(scheme_->tracker_count(), 1u);
  force_split(0x4242424242424242ull);
  EXPECT_EQ(scheme_->tracker_count(),
            hash_scheme().hagent().iagent_count());
}

// --- home-registry-specific -------------------------------------------------

TEST_F(SchemeTest, HomeRegistrySpreadsEntriesByAgentId) {
  make_scheme_by_name("home");
  auto& home = static_cast<HomeRegistryLocationScheme&>(*scheme_);
  std::vector<Trackee*> population;
  for (int i = 0; i < 16; ++i) population.push_back(&spawn_trackee(1));
  // Each agent's entry lives at its home registry, not a central one.
  std::set<net::NodeId> homes;
  for (Trackee* agent : population) {
    homes.insert(home.home_of(agent->id()).node);
  }
  EXPECT_GT(homes.size(), 3u);  // mixed ids spread over 8 nodes
  EXPECT_EQ(scheme_->tracker_count(), 8u);
}

TEST_F(SchemeTest, HomeRegistryLocateAfterManyMoves) {
  make_scheme_by_name("home");
  Trackee& target = spawn_trackee(3);
  for (net::NodeId node = 4; node < 8; ++node) move(target, node);
  EXPECT_EQ(locate_from(2, target.id()).node, 7u);
}

// --- forwarding-specific -----------------------------------------------------

TEST_F(SchemeTest, ForwardingChasesPointerChain) {
  make_scheme_by_name("forwarding");
  auto& forwarding = static_cast<ForwardingLocationScheme&>(*scheme_);
  Trackee& target = spawn_trackee(3);
  // Build a 4-hop chain without any intervening locate.
  for (net::NodeId node = 4; node < 8; ++node) move(target, node);
  const LocateOutcome outcome = locate_from(2, target.id());
  EXPECT_TRUE(outcome.found);
  EXPECT_EQ(outcome.node, 7u);
  EXPECT_GE(forwarding.chase_hops(), 4u);

  // The successful chase compressed the chain at the name service: a second
  // locate goes (nearly) straight there.
  const auto hops_before = forwarding.chase_hops();
  const LocateOutcome again = locate_from(5, target.id());
  EXPECT_TRUE(again.found);
  EXPECT_EQ(forwarding.chase_hops(), hops_before);
}

TEST_F(SchemeTest, ForwardingChainCostGrowsWithMobility) {
  make_scheme_by_name("forwarding");
  auto& forwarding = static_cast<ForwardingLocationScheme&>(*scheme_);
  Trackee& target = spawn_trackee(0);
  const LocateOutcome fresh = locate_from(2, target.id());
  ASSERT_TRUE(fresh.found);
  const auto hops_fresh = forwarding.chase_hops();
  for (int lap = 0; lap < 2; ++lap) {
    for (net::NodeId node = 1; node < 8; ++node) move(target, node);
  }
  const LocateOutcome after = locate_from(2, target.id());
  ASSERT_TRUE(after.found);
  EXPECT_GT(forwarding.chase_hops() - hops_fresh, 4u);
}

// --- guaranteed-discovery watch extension -----------------------------------

TEST_F(HashSchemeTest, WatchFiresOnNextMove) {
  Trackee& target = spawn_trackee(3);
  Trackee& watcher = spawn_trackee(5);

  std::optional<HashLocationScheme::WatchOutcome> outcome;
  hash_scheme().watch(watcher, target.id(),
                      [&](const HashLocationScheme::WatchOutcome& o) {
                        outcome = o;
                      });
  cluster_.run_for(sim::SimTime::millis(50));
  EXPECT_FALSE(outcome.has_value());  // armed, target has not moved

  move(target, 6);
  ASSERT_TRUE(outcome.has_value());
  EXPECT_TRUE(outcome->fired);
  EXPECT_EQ(outcome->entry.agent, target.id());
  EXPECT_EQ(outcome->entry.node, 6u);
}

TEST_F(HashSchemeTest, WatchTimesOutForSedentaryTarget) {
  Trackee& target = spawn_trackee(3);
  Trackee& watcher = spawn_trackee(5);
  std::optional<HashLocationScheme::WatchOutcome> outcome;
  hash_scheme().watch(watcher, target.id(),
                      [&](const HashLocationScheme::WatchOutcome& o) {
                        outcome = o;
                      });
  cluster_.run_for(kWatchTimeout + sim::SimTime::seconds(1));
  ASSERT_TRUE(outcome.has_value());
  EXPECT_FALSE(outcome->fired);
}

TEST_F(HashSchemeTest, WatchBeatsAFastMover) {
  // A target that hops every 30 ms: plain locates often report a node the
  // target has already left, but the watch's answer is fresh on arrival.
  Trackee& target = spawn_trackee(0);
  Trackee& watcher = spawn_trackee(5);

  // Drive rapid movement.
  for (net::NodeId hop = 1; hop < 8; ++hop) {
    cluster_.simulator.schedule_after(
        sim::SimTime::millis(30 * hop), [this, &target, hop] {
          if (cluster_.system.node_of(target.id())) {
            cluster_.system.migrate(target.id(), hop);
          }
        });
  }

  std::optional<HashLocationScheme::WatchOutcome> outcome;
  std::optional<net::NodeId> truth_at_fire;
  hash_scheme().watch(watcher, target.id(),
                      [&](const HashLocationScheme::WatchOutcome& o) {
                        outcome = o;
                        truth_at_fire = cluster_.system.node_of(target.id());
                      });
  cluster_.run_for(sim::SimTime::millis(60));
  ASSERT_TRUE(outcome.has_value());
  ASSERT_TRUE(outcome->fired);
  // At notification time the entry matched ground truth exactly: the target
  // had just landed and its dwell time lay ahead.
  ASSERT_TRUE(truth_at_fire.has_value());
  EXPECT_EQ(*truth_at_fire, outcome->entry.node);
}

TEST_F(HashSchemeTest, WatchSurvivesStaleCopy) {
  Trackee& target = spawn_trackee(3);
  force_split(0x4242424242424242ull);
  // A watcher on a never-refreshed node: the WatchRequest may hit the wrong
  // IAgent first and must self-correct.
  Trackee& watcher = spawn_trackee(7);
  std::optional<HashLocationScheme::WatchOutcome> outcome;
  hash_scheme().watch(watcher, target.id(),
                      [&](const HashLocationScheme::WatchOutcome& o) {
                        outcome = o;
                      });
  cluster_.run_for(sim::SimTime::millis(100));
  move(target, 2);
  cluster_.run_for(sim::SimTime::millis(100));
  ASSERT_TRUE(outcome.has_value());
  EXPECT_TRUE(outcome->fired);
  EXPECT_EQ(outcome->entry.node, 2u);
}

// --- centralized-specific ----------------------------------------------------

TEST_F(SchemeTest, CentralizedTrackerCountsRequests) {
  make_scheme_by_name("centralized");
  Trackee& target = spawn_trackee(3);
  locate_from(5, target.id());
  CentralTracker& tracker =
      static_cast<HomeRegistryLocationScheme&>(*scheme_).registry(0);
  EXPECT_GE(tracker.requests_served(), 2u);  // register + locate
  EXPECT_EQ(tracker.entry_count(), 2u);      // target + requester
  EXPECT_EQ(scheme_->tracker_count(), 1u);
}

}  // namespace
}  // namespace agentloc::core
