// The opt-in update batcher (DESIGN.md §10): coalescing, threshold and timer
// flushes, newest-seq-wins semantics, and the nack → refresh → requeue cycle
// after a rehash moves responsibility away from the batch's target.

#include "core/update_batcher.hpp"

#include <gtest/gtest.h>

#include "core/hagent.hpp"
#include "core/iagent.hpp"
#include "core/lhagent.hpp"
#include "test_cluster.hpp"

namespace agentloc::core {
namespace {

using testing::TestCluster;

class UpdateBatcherTest : public ::testing::Test {
 protected:
  UpdateBatcherTest() : cluster_(4) {
    config_.stats_window = sim::SimTime::seconds(30);
    config_.rehash_cooldown = sim::SimTime::seconds(60);
    hagent_ = &cluster_.system.create<HAgent>(0, config_);
    first_iagent_ = hagent_->bootstrap(1);
    lhagent_ = &cluster_.system.create<LHAgent>(
        2, platform::AgentAddress{0, hagent_->id()},
        std::make_shared<const hashtree::HashTree>(hagent_->tree()));
    cluster_.run_for(sim::SimTime::millis(10));
  }

  IAgent* iagent_of(platform::AgentId id) {
    const auto target = hagent_->tree().lookup_id(id);
    return dynamic_cast<IAgent*>(cluster_.system.find(target.iagent));
  }

  /// Split the primary copy so the id space is served by two IAgents.
  void split_primary() {
    SplitRequest request;
    request.rate = 1000;
    request.loads.push_back(AgentLoad{0x0ull, 50});
    request.loads.push_back(AgentLoad{0x8000000000000000ull, 50});
    cluster_.system.send(first_iagent_,
                         platform::AgentAddress{0, hagent_->id()}, request,
                         request.wire_bytes());
    cluster_.run_for(sim::SimTime::millis(100));
  }

  TestCluster cluster_;
  MechanismConfig config_;
  HAgent* hagent_ = nullptr;
  platform::AgentId first_iagent_ = 0;
  LHAgent* lhagent_ = nullptr;
};

TEST_F(UpdateBatcherTest, RepeatMoversCollapseToOneWireEntry) {
  lhagent_->enable_update_batching(sim::SimTime::millis(50), 32);
  const platform::AgentId mover = 0x1234ull;
  lhagent_->enqueue_update(LocationEntry{mover, 1, 1});
  lhagent_->enqueue_update(LocationEntry{mover, 2, 2});
  lhagent_->enqueue_update(LocationEntry{mover, 3, 3});
  EXPECT_EQ(lhagent_->batcher()->pending(), 1u);  // newest-wins pool

  cluster_.run_for(sim::SimTime::millis(60));  // past the flush timer
  const auto& stats = lhagent_->batcher()->stats();
  EXPECT_EQ(stats.enqueued, 3u);
  EXPECT_EQ(stats.replaced, 2u);
  EXPECT_EQ(stats.batches_sent, 1u);
  EXPECT_EQ(stats.entries_sent, 1u);

  IAgent* iagent = iagent_of(mover);
  ASSERT_NE(iagent, nullptr);
  EXPECT_EQ(iagent->entry_count(), 1u);
  EXPECT_EQ(iagent->stats().batched_updates, 1u);

  // Platform accounting: one flush, two reports that never paid for a
  // message of their own.
  EXPECT_EQ(cluster_.system.stats().batch_flushes, 1u);
  EXPECT_EQ(cluster_.system.stats().messages_coalesced, 2u);
}

TEST_F(UpdateBatcherTest, ReachingMaxEntriesFlushesImmediately) {
  lhagent_->enable_update_batching(sim::SimTime::seconds(10), 4);
  for (std::uint64_t i = 1; i <= 4; ++i) {
    lhagent_->enqueue_update(LocationEntry{0x1000 + i, 1, 1});
  }
  // The fourth enqueue crossed the threshold: flushed without the timer.
  EXPECT_EQ(lhagent_->batcher()->pending(), 0u);
  EXPECT_EQ(lhagent_->batcher()->stats().batches_sent, 1u);

  cluster_.run_for(sim::SimTime::millis(20));
  IAgent* iagent = iagent_of(0x1001ull);
  ASSERT_NE(iagent, nullptr);
  EXPECT_EQ(iagent->entry_count(), 4u);
  // Four distinct movers in one message: three coalesced.
  EXPECT_EQ(cluster_.system.stats().messages_coalesced, 3u);
}

TEST_F(UpdateBatcherTest, TimerFlushesAPartialBatch) {
  lhagent_->enable_update_batching(sim::SimTime::millis(20), 32);
  lhagent_->enqueue_update(LocationEntry{0xaaull, 1, 1});
  lhagent_->enqueue_update(LocationEntry{0xbbull, 2, 1});
  EXPECT_EQ(lhagent_->batcher()->pending(), 2u);
  cluster_.run_for(sim::SimTime::millis(5));
  EXPECT_EQ(lhagent_->batcher()->pending(), 2u);  // timer not due yet
  cluster_.run_for(sim::SimTime::millis(30));
  EXPECT_EQ(lhagent_->batcher()->pending(), 0u);
  IAgent* iagent = iagent_of(0xaaull);
  ASSERT_NE(iagent, nullptr);
  EXPECT_EQ(iagent->entry_count(), 2u);
}

TEST_F(UpdateBatcherTest, StaleSequenceNeverOverwritesNewerPending) {
  lhagent_->enable_update_batching(sim::SimTime::millis(20), 32);
  const platform::AgentId mover = 0x77ull;
  lhagent_->enqueue_update(LocationEntry{mover, 3, 5});
  lhagent_->enqueue_update(LocationEntry{mover, 1, 3});  // reordered, stale
  cluster_.run_for(sim::SimTime::millis(30));
  // The IAgent saw exactly one entry carrying the newest sequence.
  EXPECT_EQ(lhagent_->batcher()->stats().entries_sent, 1u);
  IAgent* iagent = iagent_of(mover);
  ASSERT_NE(iagent, nullptr);
  EXPECT_EQ(iagent->entry_count(), 1u);
}

TEST_F(UpdateBatcherTest, NackRefreshesCopyAndRedeliversEntries) {
  lhagent_->enable_update_batching(sim::SimTime::millis(20), 32);
  split_primary();
  ASSERT_EQ(hagent_->iagent_count(), 2u);
  EXPECT_EQ(lhagent_->known_iagents(), 1u);  // secondary copy is stale

  // This id now belongs to the post-split IAgent, but the stale copy routes
  // its batch to the bootstrap one, which must refuse it.
  const platform::AgentId mover = 0x8000000000000001ull;
  lhagent_->enqueue_update(LocationEntry{mover, 3, 1});
  cluster_.run_for(sim::SimTime::millis(200));

  EXPECT_GE(lhagent_->stats().update_nacks, 1u);
  EXPECT_GE(lhagent_->batcher()->stats().requeued, 1u);
  EXPECT_EQ(lhagent_->known_iagents(), 2u);  // the nack forced a refresh

  // After the refresh the requeued entry reached the right IAgent.
  IAgent* owner = iagent_of(mover);
  ASSERT_NE(owner, nullptr);
  EXPECT_NE(owner->id(), first_iagent_);
  EXPECT_EQ(owner->entry_count(), 1u);
}

}  // namespace
}  // namespace agentloc::core
