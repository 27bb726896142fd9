#include "core/lhagent.hpp"

#include <gtest/gtest.h>

#include "core/hagent.hpp"
#include "core/iagent.hpp"
#include "test_cluster.hpp"

namespace agentloc::core {
namespace {

using testing::ScriptAgent;
using testing::TestCluster;

class LHAgentTest : public ::testing::Test {
 protected:
  LHAgentTest() : cluster_(4) {
    config_.stats_window = sim::SimTime::seconds(30);
    config_.rehash_cooldown = sim::SimTime::seconds(60);
    hagent_ = &cluster_.system.create<HAgent>(0, config_);
    first_iagent_ = hagent_->bootstrap(1);
    lhagent_ = &cluster_.system.create<LHAgent>(
        2, platform::AgentAddress{0, hagent_->id()}, hagent_->tree());
    cluster_.run_for(sim::SimTime::millis(10));
  }

  /// Make the primary copy move ahead of the secondary.
  void advance_primary() {
    SplitRequest request;
    request.rate = 1000;
    request.loads.push_back(AgentLoad{0x0ull, 50});
    request.loads.push_back(AgentLoad{0x8000000000000000ull, 50});
    cluster_.system.send(first_iagent_, platform::AgentAddress{0, hagent_->id()},
                         request, request.wire_bytes());
    cluster_.run_for(sim::SimTime::millis(100));
  }

  TestCluster cluster_;
  MechanismConfig config_;
  HAgent* hagent_ = nullptr;
  platform::AgentId first_iagent_ = 0;
  LHAgent* lhagent_ = nullptr;
};

TEST_F(LHAgentTest, ResolveUsesLocalCopy) {
  const auto address = lhagent_->resolve(0xdeadbeefull);
  EXPECT_EQ(address.agent, first_iagent_);
  EXPECT_EQ(address.node, 1u);
  EXPECT_EQ(lhagent_->stats().resolves, 1u);
}

TEST_F(LHAgentTest, SecondaryCopyIsStaleUntilRefreshed) {
  advance_primary();
  ASSERT_EQ(hagent_->iagent_count(), 2u);
  EXPECT_EQ(lhagent_->known_iagents(), 1u);  // still the old copy
  EXPECT_LT(lhagent_->version(), hagent_->tree().version());

  bool refreshed = false;
  lhagent_->refresh([&] { refreshed = true; });
  cluster_.run_for(sim::SimTime::millis(50));
  EXPECT_TRUE(refreshed);
  EXPECT_EQ(lhagent_->known_iagents(), 2u);
  EXPECT_EQ(lhagent_->version(), hagent_->tree().version());
  EXPECT_EQ(lhagent_->stats().refreshes_completed, 1u);
}

TEST_F(LHAgentTest, ResolveReflectsRefreshedMapping) {
  advance_primary();
  lhagent_->refresh([] {});
  cluster_.run_for(sim::SimTime::millis(50));
  const auto low = lhagent_->resolve(0x1ull);
  const auto high = lhagent_->resolve(0x8000000000000001ull);
  EXPECT_NE(low.agent, high.agent);
}

TEST_F(LHAgentTest, ConcurrentRefreshesCoalesce) {
  advance_primary();
  int callbacks = 0;
  lhagent_->refresh([&] { ++callbacks; });
  lhagent_->refresh([&] { ++callbacks; });
  lhagent_->refresh([&] { ++callbacks; });
  cluster_.run_for(sim::SimTime::millis(50));
  EXPECT_EQ(callbacks, 3);
  EXPECT_EQ(lhagent_->stats().refreshes_requested, 1u);
  EXPECT_EQ(lhagent_->stats().refreshes_coalesced, 2u);
  EXPECT_EQ(hagent_->stats().pulls_served, 1u);
}

TEST_F(LHAgentTest, RefreshFailureStillRunsCallbacks) {
  cluster_.network.faults().set_partitioned(0, 2, true);
  bool ran = false;
  lhagent_->refresh([&] { ran = true; });
  // The pull is dropped; the RPC times out (platform default 250 ms).
  cluster_.run_for(sim::SimTime::seconds(1));
  EXPECT_TRUE(ran);
  EXPECT_EQ(lhagent_->stats().refresh_failures, 1u);
  EXPECT_EQ(lhagent_->known_iagents(), 1u);  // unchanged
}

TEST_F(LHAgentTest, RefreshUsesDeltasWhenJournalCovers) {
  advance_primary();
  ASSERT_LT(lhagent_->version(), hagent_->tree().version());
  lhagent_->refresh([] {});
  cluster_.run_for(sim::SimTime::millis(50));
  EXPECT_EQ(lhagent_->version(), hagent_->tree().version());
  EXPECT_EQ(lhagent_->stats().delta_refreshes, 1u);
  EXPECT_EQ(hagent_->stats().delta_pulls_served, 1u);
  EXPECT_EQ(lhagent_->tree(), hagent_->tree());
}

TEST_F(LHAgentTest, FullSnapshotWhenCopyPredatesJournal) {
  // bootstrap's pre-split is not journaled, so a copy taken before it is
  // older than anything the journal covers: only a full snapshot serves it.
  config_.initial_iagents = 4;
  HAgent& presplit = cluster_.system.create<HAgent>(3, config_);
  const platform::AgentId first = presplit.bootstrap(1);
  LHAgent& stale_lh = cluster_.system.create<LHAgent>(
      2, platform::AgentAddress{3, presplit.id()},
      hashtree::HashTree(first, 1));
  cluster_.run_for(sim::SimTime::millis(10));
  ASSERT_LT(stale_lh.version(), presplit.tree().version());
  stale_lh.refresh([] {});
  cluster_.run_for(sim::SimTime::millis(50));
  EXPECT_EQ(stale_lh.stats().delta_refreshes, 0u);
  EXPECT_EQ(stale_lh.stats().refreshes_completed, 1u);
  EXPECT_EQ(presplit.stats().delta_pulls_served, 0u);
  EXPECT_EQ(stale_lh.known_iagents(), 4u);
  EXPECT_EQ(stale_lh.tree(), presplit.tree());
}

TEST_F(LHAgentTest, RefreshNeverRegresses) {
  // Force a refresh that returns the same version; the copy stays intact.
  bool ran = false;
  lhagent_->refresh([&] { ran = true; });
  cluster_.run_for(sim::SimTime::millis(50));
  EXPECT_TRUE(ran);
  EXPECT_EQ(lhagent_->version(), hagent_->tree().version());
  EXPECT_EQ(lhagent_->known_iagents(), 1u);
}

}  // namespace
}  // namespace agentloc::core
