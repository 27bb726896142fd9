// Unit tests of the Voyager-style baseline's moving parts: the per-node
// ForwarderAgent's pointer/presence bookkeeping and the chase protocol's
// edge cases (the end-to-end behaviour is covered in scheme_test).

#include "core/forwarding_scheme.hpp"

#include <gtest/gtest.h>

#include <optional>

#include "test_cluster.hpp"

namespace agentloc::core {
namespace {

using testing::ScriptAgent;
using testing::TestCluster;

class ForwarderTest : public ::testing::Test {
 protected:
  ForwarderTest() : cluster_(4) {
    forwarder_ = &cluster_.system.create<ForwarderAgent>(1);
    client_ = &cluster_.system.create<ScriptAgent>(0);
    cluster_.run_for(sim::SimTime::millis(5));
  }

  platform::AgentAddress forwarder_address() const {
    return platform::AgentAddress{1, forwarder_->id()};
  }

  ChaseReply chase(platform::AgentId target) {
    std::optional<platform::RpcResult> settled;
    cluster_.system.request(client_->id(), forwarder_address(),
                            ChaseRequest{target}, ChaseRequest::kWireBytes,
                            [&](platform::RpcResult r) { settled = r; });
    cluster_.run_for(sim::SimTime::millis(50));
    EXPECT_TRUE(settled.has_value() && settled->ok());
    const auto* reply =
        settled ? settled->reply.body_as<ChaseReply>() : nullptr;
    EXPECT_NE(reply, nullptr);
    return reply != nullptr ? *reply : ChaseReply{};
  }

  void send_presence(platform::AgentId agent, bool here, std::uint64_t seq) {
    cluster_.system.send(client_->id(), forwarder_address(),
                         PresenceNotice{agent, here, seq},
                         PresenceNotice::kWireBytes);
    cluster_.run_for(sim::SimTime::millis(10));
  }

  void send_forward(platform::AgentId agent, net::NodeId next,
                    std::uint64_t seq) {
    cluster_.system.send(client_->id(), forwarder_address(),
                         SetForward{agent, next, seq},
                         SetForward::kWireBytes);
    cluster_.run_for(sim::SimTime::millis(10));
  }

  TestCluster cluster_;
  ForwarderAgent* forwarder_ = nullptr;
  ScriptAgent* client_ = nullptr;
};

TEST_F(ForwarderTest, UnknownAgentIsUnknown) {
  EXPECT_EQ(chase(42).kind, ChaseReply::Kind::kUnknown);
  EXPECT_EQ(forwarder_->pointer_count(), 0u);
}

TEST_F(ForwarderTest, PresenceMakesAgentHere) {
  send_presence(42, true, 1);
  const ChaseReply reply = chase(42);
  EXPECT_EQ(reply.kind, ChaseReply::Kind::kHere);
  EXPECT_EQ(reply.next, 1u);  // the forwarder's own node
  EXPECT_EQ(forwarder_->pointer_count(), 1u);
}

TEST_F(ForwarderTest, ForwardPointsToNextHop) {
  send_presence(42, true, 1);
  send_forward(42, 3, 2);
  const ChaseReply reply = chase(42);
  EXPECT_EQ(reply.kind, ChaseReply::Kind::kForward);
  EXPECT_EQ(reply.next, 3u);
}

TEST_F(ForwarderTest, StaleMessagesIgnoredBySequence) {
  send_forward(42, 3, 5);
  // A reordered, older presence must not resurrect "here".
  send_presence(42, true, 4);
  EXPECT_EQ(chase(42).kind, ChaseReply::Kind::kForward);
  // But a newer presence wins.
  send_presence(42, true, 6);
  EXPECT_EQ(chase(42).kind, ChaseReply::Kind::kHere);
}

TEST_F(ForwarderTest, RetractedPresenceWithoutForwardIsUnknown) {
  send_presence(42, true, 1);
  send_presence(42, false, 2);  // deregistered, no forwarding pointer
  EXPECT_EQ(chase(42).kind, ChaseReply::Kind::kUnknown);
}

TEST_F(ForwarderTest, TracksManyAgentsIndependently) {
  send_presence(1, true, 1);
  send_forward(2, 0, 1);
  send_presence(3, true, 1);
  EXPECT_EQ(forwarder_->pointer_count(), 3u);
  EXPECT_EQ(chase(1).kind, ChaseReply::Kind::kHere);
  EXPECT_EQ(chase(2).kind, ChaseReply::Kind::kForward);
  EXPECT_EQ(chase(3).kind, ChaseReply::Kind::kHere);
}

// --- whole-scheme edge cases -------------------------------------------------

namespace {
class Probe : public platform::Agent {
 public:
  explicit Probe(LocationScheme& scheme) : scheme_(scheme) {}
  void on_start() override {
    scheme_.register_agent(*this, [](bool) {});
  }
  void on_arrival(net::NodeId) override {
    scheme_.update_location(*this, [](bool) {});
  }

 private:
  LocationScheme& scheme_;
};
}  // namespace

TEST(ForwardingScheme, DepartedAgentYieldsStaleAnswer) {
  // Documented baseline weakness: an agent that dies without deregistering
  // leaves its presence marker behind, so the chase reports its last node —
  // a stale "found". (The requester discovers the truth only on contact.)
  TestCluster cluster(4);
  ForwardingLocationScheme scheme(cluster.system);
  cluster.run_for(sim::SimTime::millis(10));
  Probe& target = cluster.system.create<Probe>(1, scheme);
  Probe& requester = cluster.system.create<Probe>(0, scheme);
  cluster.run_for(sim::SimTime::millis(50));
  const auto target_id = target.id();  // target is destroyed by the dispose
  cluster.system.dispose(target_id);   // crash: no deregistration
  cluster.run_for(sim::SimTime::millis(20));

  std::optional<LocateOutcome> outcome;
  scheme.locate(requester, target_id,
                [&](const LocateOutcome& o) { outcome = o; });
  cluster.run_for(sim::SimTime::seconds(10));
  ASSERT_TRUE(outcome.has_value());
  EXPECT_TRUE(outcome->found);  // stale!
  EXPECT_EQ(outcome->node, 1u);
  EXPECT_FALSE(cluster.system.exists(target_id));
}

TEST(ForwardingScheme, CleanDeregistrationYieldsNotFound) {
  TestCluster cluster(4);
  ForwardingLocationScheme scheme(cluster.system);
  cluster.run_for(sim::SimTime::millis(10));
  Probe& target = cluster.system.create<Probe>(1, scheme);
  Probe& requester = cluster.system.create<Probe>(0, scheme);
  cluster.run_for(sim::SimTime::millis(50));
  scheme.deregister_agent(target);
  cluster.run_for(sim::SimTime::millis(50));
  cluster.system.dispose(target.id());

  std::optional<LocateOutcome> outcome;
  scheme.locate(requester, target.id(),
                [&](const LocateOutcome& o) { outcome = o; });
  cluster.run_for(sim::SimTime::seconds(10));
  ASSERT_TRUE(outcome.has_value());
  EXPECT_FALSE(outcome->found);
}

TEST(ForwardingScheme, ChaseHopsAccumulateAcrossMoves) {
  TestCluster cluster(4);
  ForwardingLocationScheme scheme(cluster.system);
  cluster.run_for(sim::SimTime::millis(10));
  Probe& target = cluster.system.create<Probe>(1, scheme);
  Probe& requester = cluster.system.create<Probe>(0, scheme);
  cluster.run_for(sim::SimTime::millis(50));
  // Two moves without any locate in between: the chain is 1 -> 2 -> 3 and
  // the name service still records the birth node 1.
  for (const net::NodeId node : {2u, 3u}) {
    cluster.system.migrate(target.id(), node);
    cluster.run_for(sim::SimTime::millis(30));
  }
  std::optional<LocateOutcome> outcome;
  scheme.locate(requester, target.id(),
                [&](const LocateOutcome& o) { outcome = o; });
  cluster.run_for(sim::SimTime::seconds(10));
  ASSERT_TRUE(outcome.has_value());
  EXPECT_TRUE(outcome->found);
  EXPECT_EQ(outcome->node, 3u);
  EXPECT_EQ(scheme.chase_hops(), 2u);
}

}  // namespace
}  // namespace agentloc::core
