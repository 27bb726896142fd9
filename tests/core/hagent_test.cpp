#include "core/hagent.hpp"

#include <gtest/gtest.h>

#include "core/iagent.hpp"
#include "test_cluster.hpp"
#include "util/bytebuffer.hpp"

namespace agentloc::core {
namespace {

using testing::ScriptAgent;
using testing::TestCluster;

// ---------------------------------------------------------------------------
// plan_split: pure planning logic (paper §4.1)
// ---------------------------------------------------------------------------

class PlanSplitTest : public ::testing::Test {
 protected:
  PlanSplitTest() : tree_(1, 0) {}

  static AgentLoad load_with_bits(std::uint64_t top_bits, int width,
                                  std::uint32_t requests) {
    return AgentLoad{top_bits << (64 - width), requests};
  }

  hashtree::HashTree tree_;
  MechanismConfig config_;
};

TEST_F(PlanSplitTest, EvenFirstBitGivesSimpleM1) {
  std::vector<AgentLoad> loads{load_with_bits(0b0, 1, 50),
                               load_with_bits(0b1, 1, 50)};
  const auto plan = HAgent::plan_split(tree_, 1, loads, config_);
  EXPECT_FALSE(plan.complex_point.has_value());
  EXPECT_EQ(plan.simple_m, 1u);
  EXPECT_DOUBLE_EQ(plan.moved_fraction, 0.5);
}

TEST_F(PlanSplitTest, SkewedFirstBitIncreasesM) {
  // All load has bit 0 == 0, so m=1 moves nothing; bit 1 divides it evenly.
  std::vector<AgentLoad> loads{load_with_bits(0b00, 2, 50),
                               load_with_bits(0b01, 2, 50)};
  const auto plan = HAgent::plan_split(tree_, 1, loads, config_);
  EXPECT_FALSE(plan.complex_point.has_value());
  EXPECT_EQ(plan.simple_m, 2u);
}

TEST_F(PlanSplitTest, HopelessSkewSkipsDeadBitsAggressively) {
  // A single hot agent: no bit divides the load. All m are equally bad, so
  // the plan prefers the largest m — skipping the most dead bits per split.
  std::vector<AgentLoad> loads{load_with_bits(0b0, 1, 100)};
  const auto plan = HAgent::plan_split(tree_, 1, loads, config_);
  EXPECT_FALSE(plan.complex_point.has_value());
  EXPECT_EQ(plan.simple_m, config_.max_split_bits);
}

TEST_F(PlanSplitTest, SharedPrefixJumpsToDiscriminatingBit) {
  // Every id shares a 3-bit prefix 000; bit 3 divides the load evenly. The
  // plan must land exactly on m = 4.
  std::vector<AgentLoad> loads{load_with_bits(0b0000, 4, 50),
                               load_with_bits(0b0001, 4, 50)};
  const auto plan = HAgent::plan_split(tree_, 1, loads, config_);
  EXPECT_FALSE(plan.complex_point.has_value());
  EXPECT_EQ(plan.simple_m, 4u);
  EXPECT_DOUBLE_EQ(plan.moved_fraction, 0.5);
}

TEST_F(PlanSplitTest, EmptyLoadsDefaultToM1) {
  const auto plan = HAgent::plan_split(tree_, 1, {}, config_);
  EXPECT_FALSE(plan.complex_point.has_value());
  EXPECT_EQ(plan.simple_m, 1u);
}

TEST_F(PlanSplitTest, ComplexCandidatePreferredWhenEven) {
  // Build padding: split on the 2nd bit (m=2) leaves one padding bit at
  // position 0 is root padding... rather: simple_split(m=2) extends the root
  // padding, making SplitPoint{0,0} available on both leaves.
  tree_.simple_split(1, 2, 2, 1);
  ASSERT_FALSE(tree_.complex_split_candidates(1).empty());
  // Load under leaf 1 (bit1 = 0) divides evenly on bit 0 — the padding bit.
  std::vector<AgentLoad> loads{load_with_bits(0b00, 2, 50),
                               load_with_bits(0b10, 2, 50)};
  const auto plan = HAgent::plan_split(tree_, 1, loads, config_);
  ASSERT_TRUE(plan.complex_point.has_value());
  EXPECT_EQ(*plan.complex_point, (hashtree::SplitPoint{0, 0}));
}

TEST_F(PlanSplitTest, UnevenComplexCandidateSkipped) {
  tree_.simple_split(1, 2, 2, 1);
  // All of leaf 1's load has bit 0 == 0: reclaiming the padding bit moves
  // nothing, so the plan must fall back to a simple split on bit 2.
  std::vector<AgentLoad> loads{load_with_bits(0b000, 3, 50),
                               load_with_bits(0b001, 3, 50)};
  const auto plan = HAgent::plan_split(tree_, 1, loads, config_);
  EXPECT_FALSE(plan.complex_point.has_value());
  EXPECT_EQ(plan.simple_m, 1u);
}

// ---------------------------------------------------------------------------
// HAgent as a protocol participant
// ---------------------------------------------------------------------------

class HAgentTest : public ::testing::Test {
 protected:
  HAgentTest() : cluster_(6) {
    config_.rehash_cooldown = sim::SimTime::seconds(60);
    hagent_ = &cluster_.system.create<HAgent>(0, config_);
    first_iagent_ = hagent_->bootstrap(1);
    client_ = &cluster_.system.create<ScriptAgent>(2);
    cluster_.run_for(sim::SimTime::millis(10));
  }

  platform::AgentAddress hagent_address() const {
    return platform::AgentAddress{0, hagent_->id()};
  }

  IAgent& iagent(platform::AgentId id) {
    auto* agent = dynamic_cast<IAgent*>(cluster_.system.find(id));
    EXPECT_NE(agent, nullptr);
    return *agent;
  }

  /// Impersonate an IAgent: deliver `body` to the HAgent as if sent by it.
  /// (The HAgent identifies rehash requesters by sender id.)
  template <typename T>
  void send_as(platform::AgentId from, T body, std::size_t bytes) {
    cluster_.system.send(from, hagent_address(), std::move(body), bytes);
    cluster_.run_for(sim::SimTime::millis(50));
  }

  SplitRequest even_split_request() {
    SplitRequest request;
    request.rate = 1000.0;
    request.loads.push_back(AgentLoad{0x0000000000000001ull, 50});
    request.loads.push_back(AgentLoad{0x8000000000000001ull, 50});
    return request;
  }

  TestCluster cluster_;
  MechanismConfig config_;
  HAgent* hagent_ = nullptr;
  platform::AgentId first_iagent_ = 0;
  ScriptAgent* client_ = nullptr;
};

TEST_F(HAgentTest, BootstrapCreatesPrimaryCopy) {
  EXPECT_EQ(hagent_->iagent_count(), 1u);
  EXPECT_EQ(hagent_->tree().leaves().front(), first_iagent_);
  EXPECT_EQ(hagent_->tree().location_of(first_iagent_), 1u);
  // The initial IAgent received its grant.
  EXPECT_EQ(iagent(first_iagent_).hash_version(), hagent_->tree().version());
}

TEST_F(HAgentTest, ServesHashPulls) {
  bool checked = false;
  cluster_.system.request(
      client_->id(), hagent_address(), HashPullRequest{0},
      HashPullRequest::kWireBytes, [&](platform::RpcResult result) {
        ASSERT_TRUE(result.ok());
        const auto* reply = result.reply.body_as<HashPullReply>();
        ASSERT_NE(reply, nullptr);
        EXPECT_FALSE(reply->is_delta);  // a fresh requester gets a snapshot
        util::ByteReader reader(reply->payload);
        const auto tree = hashtree::HashTree::deserialize(reader);
        EXPECT_EQ(tree, hagent_->tree());
        checked = true;
      });
  cluster_.run_for(sim::SimTime::millis(50));
  EXPECT_TRUE(checked);
  EXPECT_EQ(hagent_->stats().pulls_served, 1u);
}

TEST_F(HAgentTest, SplitRequestGrowsTheTree) {
  send_as(first_iagent_, even_split_request(),
          even_split_request().wire_bytes());
  cluster_.run_for(sim::SimTime::millis(100));
  EXPECT_EQ(hagent_->iagent_count(), 2u);
  EXPECT_EQ(hagent_->stats().simple_splits, 1u);
  EXPECT_FALSE(hagent_->rehash_in_progress());  // both IAgents acked

  // Both leaves carry complementary predicates.
  const auto leaves = hagent_->tree().leaves();
  ASSERT_EQ(leaves.size(), 2u);
  EXPECT_EQ(hagent_->tree().hyper_label(leaves[0]), "0");
  EXPECT_EQ(hagent_->tree().hyper_label(leaves[1]), "1");
  // The fresh IAgent exists as a live platform agent with its predicate.
  const auto fresh_id =
      leaves[0] == first_iagent_ ? leaves[1] : leaves[0];
  EXPECT_EQ(iagent(fresh_id).predicate().valid_bits.size(), 1u);
}

TEST_F(HAgentTest, JournalStatsTrackRecordedOps) {
  EXPECT_EQ(hagent_->stats().journal_bytes, 0u);
  send_as(first_iagent_, even_split_request(),
          even_split_request().wire_bytes());
  cluster_.run_for(sim::SimTime::millis(100));
  ASSERT_EQ(hagent_->stats().simple_splits, 1u);
  // One op journaled; its encoded width is a handful of bytes, no
  // truncation anywhere near the 64 KiB default bound.
  EXPECT_GT(hagent_->stats().journal_bytes, 0u);
  EXPECT_LT(hagent_->stats().journal_bytes, 64u);
  EXPECT_EQ(hagent_->stats().journal_compactions, 0u);
}

TEST_F(HAgentTest, SplitFromUnknownSenderRejected) {
  send_as(client_->id(), even_split_request(),
          even_split_request().wire_bytes());
  EXPECT_EQ(hagent_->iagent_count(), 1u);
  EXPECT_GE(hagent_->stats().rehashes_rejected, 1u);
}

TEST_F(HAgentTest, ConcurrentRehashesSerialized) {
  // First split leaves the coordinator busy until Done messages arrive
  // (~4 ms round trips). A merge request racing in behind it is rejected.
  cluster_.system.send(first_iagent_, hagent_address(), even_split_request(),
                       even_split_request().wire_bytes());
  cluster_.run_for(sim::SimTime::millis(3));  // split applied, not yet acked
  EXPECT_TRUE(hagent_->rehash_in_progress());
  const auto rejected_before = hagent_->stats().rehashes_rejected;
  cluster_.system.send(first_iagent_, hagent_address(), MergeRequest{0.1, 0},
                       MergeRequest::kWireBytes);
  cluster_.run_for(sim::SimTime::millis(100));
  EXPECT_GT(hagent_->stats().rehashes_rejected, rejected_before);
  EXPECT_EQ(hagent_->iagent_count(), 2u);  // merge did not happen
}

TEST_F(HAgentTest, MergeShrinksTheTreeAndRetiresVictim) {
  send_as(first_iagent_, even_split_request(),
          even_split_request().wire_bytes());
  cluster_.run_for(sim::SimTime::millis(100));
  ASSERT_EQ(hagent_->iagent_count(), 2u);
  const auto leaves = hagent_->tree().leaves();
  const auto victim = leaves[0] == first_iagent_ ? leaves[1] : leaves[0];

  send_as(victim, MergeRequest{0.1, 0}, MergeRequest::kWireBytes);
  cluster_.run_for(sim::SimTime::millis(200));
  EXPECT_EQ(hagent_->iagent_count(), 1u);
  EXPECT_EQ(hagent_->stats().simple_merges, 1u);
  EXPECT_FALSE(cluster_.system.exists(victim));
  EXPECT_FALSE(hagent_->rehash_in_progress());
  // The survivor's predicate relaxed back to match-everything.
  EXPECT_TRUE(iagent(first_iagent_).predicate().valid_bits.empty());
}

TEST_F(HAgentTest, MergeOfLastLeafRejected) {
  send_as(first_iagent_, MergeRequest{0.0, 0}, MergeRequest::kWireBytes);
  EXPECT_EQ(hagent_->iagent_count(), 1u);
  EXPECT_GE(hagent_->stats().rehashes_rejected, 1u);
}

TEST_F(HAgentTest, IAgentMovedUpdatesLocation) {
  const auto version = hagent_->tree().version();
  send_as(first_iagent_, IAgentMoved{first_iagent_, 4},
          IAgentMoved::kWireBytes);
  EXPECT_EQ(hagent_->tree().location_of(first_iagent_), 4u);
  EXPECT_GT(hagent_->tree().version(), version);
  EXPECT_EQ(hagent_->stats().iagent_moves, 1u);
}

TEST_F(HAgentTest, MovedNoticeForUnknownIAgentIgnored) {
  send_as(client_->id(), IAgentMoved{client_->id(), 4},
          IAgentMoved::kWireBytes);
  EXPECT_EQ(hagent_->stats().iagent_moves, 0u);
}

TEST_F(HAgentTest, EntriesFollowTheSplit) {
  // Register two entries with the initial IAgent, then split: the entry in
  // the new IAgent's region must be handed off.
  cluster_.system.send(client_->id(),
                       platform::AgentAddress{1, first_iagent_},
                       UpdateRequest{LocationEntry{0x0000000000000001ull, 2, 1}},
                       UpdateRequest::kWireBytes);
  cluster_.system.send(client_->id(),
                       platform::AgentAddress{1, first_iagent_},
                       UpdateRequest{LocationEntry{0x8000000000000001ull, 3, 1}},
                       UpdateRequest::kWireBytes);
  cluster_.run_for(sim::SimTime::millis(20));
  send_as(first_iagent_, even_split_request(),
          even_split_request().wire_bytes());
  cluster_.run_for(sim::SimTime::millis(200));

  const auto leaves = hagent_->tree().leaves();
  const auto fresh = leaves[0] == first_iagent_ ? leaves[1] : leaves[0];
  EXPECT_EQ(iagent(first_iagent_).entry_count(), 1u);
  EXPECT_EQ(iagent(fresh).entry_count(), 1u);
}

}  // namespace
}  // namespace agentloc::core
