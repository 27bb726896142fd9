#include "core/lhagent.hpp"

#include <gtest/gtest.h>

#include "core/hagent.hpp"
#include "core/iagent.hpp"
#include "hashtree/delta.hpp"
#include "test_cluster.hpp"

namespace agentloc::core {
namespace {

using testing::ScriptAgent;
using testing::TestCluster;

/// A coordinator whose journal has drifted: it answers a delta pull with a
/// delta that does not apply to the requester's copy, and a forced pull with
/// a full snapshot of `tree`. The bad delta either names the wrong base
/// version, or fails halfway through its replay: its first op relocates
/// `leaf`, and its second names a leaf the copy does not have.
class DriftedCoordinator : public platform::Agent {
 public:
  DriftedCoordinator(hashtree::HashTree tree, hashtree::IAgentId leaf,
                     bool fail_halfway)
      : tree_(std::move(tree)), leaf_(leaf), fail_halfway_(fail_halfway) {}

  void on_message(const platform::Message& message) override {
    const auto* request = message.body_as<HashPullRequest>();
    if (request == nullptr) return;
    ++pulls;
    util::ByteWriter writer;
    HashPullReply reply;
    if (request->force_full) {
      tree_.serialize(writer);
    } else {
      hashtree::TreeDelta delta;
      delta.base_version = request->have_version;
      delta.target_version = tree_.version();
      if (fail_halfway_) {
        hashtree::TreeOp relocate;
        relocate.kind = hashtree::TreeOp::Kind::kSetLocation;
        relocate.victim = leaf_;
        relocate.location = 3;
        hashtree::TreeOp unknown = relocate;
        unknown.victim = leaf_ + 1;
        delta.ops = {relocate, unknown};
      } else {
        ++delta.base_version;
      }
      delta.serialize(writer);
      reply.is_delta = true;
    }
    reply.payload = std::move(writer).take();
    const std::size_t bytes = reply.wire_bytes();
    system().reply(message, id(), std::move(reply), bytes);
  }

  int pulls = 0;

 private:
  hashtree::HashTree tree_;
  hashtree::IAgentId leaf_;
  bool fail_halfway_;
};

class LHAgentTest : public ::testing::Test {
 protected:
  LHAgentTest() : cluster_(4) {
    config_.rehash_cooldown = sim::SimTime::seconds(60);
    hagent_ = &cluster_.system.create<HAgent>(0, config_);
    first_iagent_ = hagent_->bootstrap(1);
    lhagent_ = &cluster_.system.create<LHAgent>(
        2, platform::AgentAddress{0, hagent_->id()},
        std::make_shared<const hashtree::HashTree>(hagent_->tree()));
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
      std::make_shared<const hashtree::HashTree>(first, 1));
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

TEST_F(LHAgentTest, DeltaRefreshSwapsOnlyTheRefreshersSnapshot) {
  const auto shared =
      std::make_shared<const hashtree::HashTree>(hagent_->tree());
  const platform::AgentAddress coordinator{0, hagent_->id()};
  LHAgent& refreshed = cluster_.system.create<LHAgent>(2, coordinator, shared);
  LHAgent& other = cluster_.system.create<LHAgent>(3, coordinator, shared);
  cluster_.run_for(sim::SimTime::millis(10));
  ASSERT_EQ(&refreshed.tree(), &other.tree());
  const std::uint64_t old_version = shared->version();

  advance_primary();
  refreshed.refresh([] {});
  cluster_.run_for(sim::SimTime::millis(50));
  EXPECT_EQ(refreshed.stats().delta_refreshes, 1u);
  EXPECT_EQ(refreshed.version(), hagent_->tree().version());
  EXPECT_NE(&refreshed.tree(), shared.get());
  EXPECT_EQ(other.version(), old_version);
  EXPECT_EQ(&other.tree(), shared.get());
  EXPECT_EQ(shared->version(), old_version);
}

TEST_F(LHAgentTest, FullRefreshSwapsOnlyTheRefreshersSnapshot) {
  // The journal-gap setup of FullSnapshotWhenCopyPredatesJournal, with two
  // LHAgents on one snapshot.
  config_.initial_iagents = 4;
  HAgent& presplit = cluster_.system.create<HAgent>(3, config_);
  const platform::AgentId first = presplit.bootstrap(1);
  const auto shared = std::make_shared<const hashtree::HashTree>(first, 1);
  const platform::AgentAddress coordinator{3, presplit.id()};
  LHAgent& refreshed = cluster_.system.create<LHAgent>(2, coordinator, shared);
  LHAgent& other = cluster_.system.create<LHAgent>(1, coordinator, shared);
  cluster_.run_for(sim::SimTime::millis(10));
  const std::uint64_t old_version = shared->version();
  ASSERT_LT(old_version, presplit.tree().version());

  refreshed.refresh([] {});
  cluster_.run_for(sim::SimTime::millis(50));
  EXPECT_EQ(refreshed.stats().delta_refreshes, 0u);
  EXPECT_EQ(refreshed.stats().refreshes_completed, 1u);
  EXPECT_EQ(refreshed.version(), presplit.tree().version());
  EXPECT_NE(&refreshed.tree(), shared.get());
  EXPECT_EQ(other.version(), old_version);
  EXPECT_EQ(&other.tree(), shared.get());
  EXPECT_EQ(other.known_iagents(), 1u);
}

TEST_F(LHAgentTest, MismatchedDeltaLeavesSnapshotUntilFullPullLands) {
  advance_primary();
  for (const bool fail_halfway : {false, true}) {
    SCOPED_TRACE(fail_halfway);
    DriftedCoordinator& coordinator =
        cluster_.system.create<DriftedCoordinator>(3, hagent_->tree(),
                                                   first_iagent_, fail_halfway);
    const platform::AgentAddress address{3, coordinator.id()};
    const auto shared =
        std::make_shared<const hashtree::HashTree>(first_iagent_, 1);
    LHAgent& refreshed = cluster_.system.create<LHAgent>(2, address, shared);
    LHAgent& other = cluster_.system.create<LHAgent>(1, address, shared);
    cluster_.run_for(sim::SimTime::millis(10));
    const std::uint64_t old_version = shared->version();

    refreshed.refresh([] {});
    // Step until the forced pull is on its way: the delta has been
    // rejected, and the snapshot must be the one it was.
    for (int step = 0; step < 100 && coordinator.pulls < 2; ++step) {
      cluster_.run_for(sim::SimTime::micros(100));
    }
    ASSERT_EQ(coordinator.pulls, 2);
    EXPECT_EQ(&refreshed.tree(), shared.get());
    EXPECT_EQ(refreshed.version(), old_version);
    EXPECT_EQ(refreshed.resolve(0).node, 1u);

    cluster_.run_for(sim::SimTime::millis(50));
    EXPECT_EQ(refreshed.stats().delta_refreshes, 0u);
    EXPECT_EQ(refreshed.stats().refreshes_completed, 1u);
    EXPECT_NE(&refreshed.tree(), shared.get());
    EXPECT_EQ(refreshed.tree(), hagent_->tree());
    EXPECT_EQ(&other.tree(), shared.get());
    EXPECT_EQ(shared->version(), old_version);
  }
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
