// The §7 fault-tolerance extension: a standby HAgent replicates the primary
// copy op-by-op and is promoted when the primary dies — removing the paper's
// acknowledged "vulnerability point".

#include <gtest/gtest.h>

#include <optional>

#include "core/hash_scheme.hpp"
#include "test_cluster.hpp"

namespace agentloc::core {
namespace {

using testing::TestCluster;

class Client : public platform::Agent {
 public:
  explicit Client(LocationScheme& scheme) : scheme_(scheme) {}
  void on_start() override {
    scheme_.register_agent(*this, [](bool) {});
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

 private:
  LocationScheme& scheme_;
};

class FailoverTest : public ::testing::Test {
 protected:
  FailoverTest() : cluster_(8) {
    config_.hagent_replication = true;
    config_.rehash_cooldown = sim::SimTime::millis(800);
    config_.t_max = 30.0;
    config_.t_min = 0.0;
    scheme_ = std::make_unique<HashLocationScheme>(cluster_.system, config_);
    cluster_.run_for(sim::SimTime::millis(10));
  }

  Client& spawn(net::NodeId node) {
    Client& client = cluster_.system.create<Client>(node, *scheme_);
    cluster_.run_for(sim::SimTime::millis(20));
    return client;
  }

  LocateOutcome locate(net::NodeId from, platform::AgentId target) {
    Client& requester = spawn(from);
    std::optional<LocateOutcome> outcome;
    scheme_->locate(requester, target,
                    [&](const LocateOutcome& o) { outcome = o; });
    cluster_.run_for(sim::SimTime::seconds(15));
    EXPECT_TRUE(outcome.has_value());
    return outcome.value_or(LocateOutcome{});
  }

  /// Overload the mechanism until at least one rehash happened.
  void drive_load(int rounds = 30) {
    Client& driver = spawn(0);
    const auto splits_before = current_coordinator().stats().simple_splits +
                               current_coordinator().stats().complex_splits;
    for (int round = 0; round < rounds; ++round) {
      for (int i = 0; i < 8; ++i) {
        scheme_->locate(driver, 0x1111111111111111ull * (i + 1),
                        [](const LocateOutcome&) {});
      }
      cluster_.run_for(sim::SimTime::millis(100));
      const auto splits_now = current_coordinator().stats().simple_splits +
                              current_coordinator().stats().complex_splits;
      if (splits_now > splits_before) break;
    }
  }

  HAgent& current_coordinator() { return scheme_->hagent(); }

  TestCluster cluster_;
  MechanismConfig config_;
  std::unique_ptr<HashLocationScheme> scheme_;
};

TEST_F(FailoverTest, BackupStartsAsFollowerWithTheTree) {
  ASSERT_NE(scheme_->backup_hagent(), nullptr);
  EXPECT_EQ(scheme_->backup_hagent()->role(), HAgent::Role::kFollower);
  EXPECT_EQ(scheme_->backup_hagent()->tree(), scheme_->hagent().tree());
}

TEST_F(FailoverTest, OpsStreamToTheBackup) {
  drive_load();
  const auto& primary = scheme_->hagent();
  ASSERT_GT(primary.iagent_count(), 1u);
  cluster_.run_for(sim::SimTime::millis(100));  // let the stream land
  HAgent& backup = *scheme_->backup_hagent();
  EXPECT_EQ(backup.tree().version(), primary.tree().version());
  EXPECT_EQ(backup.tree(), primary.tree());
  EXPECT_GT(primary.stats().ops_replicated, 0u);
  EXPECT_GT(backup.stats().ops_applied_as_follower, 0u);
}

TEST_F(FailoverTest, FollowerRefusesRehashes) {
  HAgent& backup = *scheme_->backup_hagent();
  const auto rejected_before = backup.stats().rehashes_rejected;
  // Impersonate the (real) initial IAgent toward the backup.
  const auto iagent = backup.tree().leaves().front();
  SplitRequest request;
  request.rate = 999;
  request.loads.push_back(AgentLoad{0x1ull, 50});
  request.loads.push_back(AgentLoad{0x8000000000000000ull, 50});
  cluster_.system.send(iagent,
                       platform::AgentAddress{backup.node(), backup.id()},
                       request, request.wire_bytes());
  cluster_.run_for(sim::SimTime::millis(50));
  EXPECT_GT(backup.stats().rehashes_rejected, rejected_before);
  EXPECT_EQ(backup.iagent_count(), 1u);
}

TEST_F(FailoverTest, GapTriggersResync) {
  // Partition the backup away from the primary so a replication op is lost,
  // then heal and cause another op: the version gap forces a full resync.
  HAgent& backup = *scheme_->backup_hagent();
  cluster_.network.faults().set_partitioned(backup.node(),
                                            scheme_->hagent().node(), true);
  drive_load();
  cluster_.network.faults().set_partitioned(backup.node(),
                                            scheme_->hagent().node(), false);
  drive_load();  // another rehash: its op arrives with a version gap
  cluster_.run_for(sim::SimTime::seconds(1));
  EXPECT_GT(backup.stats().resyncs, 0u);
  EXPECT_EQ(backup.tree(), scheme_->hagent().tree());
}

TEST_F(FailoverTest, SystemSurvivesPrimaryDeath) {
  Client& target = spawn(3);
  drive_load();
  const auto trackers_before = scheme_->hagent().iagent_count();
  ASSERT_GT(trackers_before, 1u);
  cluster_.run_for(sim::SimTime::millis(100));

  // The primary dies.
  HAgent* primary = &scheme_->hagent();
  HAgent* backup = scheme_->backup_hagent();
  cluster_.system.dispose(primary->id());

  // Locates keep working immediately: IAgents answer them without the
  // coordinator.
  EXPECT_TRUE(locate(5, target.id()).found);

  // Further overload: the IAgents' split requests bounce off the dead
  // primary, they fail over, the backup is promoted, and rehashing resumes.
  for (int round = 0; round < 60 && backup->role() != HAgent::Role::kPrimary;
       ++round) {
    Client& driver = spawn(1);
    for (int i = 0; i < 8; ++i) {
      scheme_->locate(driver, 0x2222222222222222ull * (i + 1),
                      [](const LocateOutcome&) {});
    }
    cluster_.run_for(sim::SimTime::millis(200));
  }
  EXPECT_EQ(backup->role(), HAgent::Role::kPrimary);
  EXPECT_GT(backup->stats().promotions, 0u);

  // And the mechanism is fully operational again: more splits can happen
  // through the promoted coordinator, and lookups still resolve.
  EXPECT_TRUE(locate(6, target.id()).found);
  EXPECT_GE(scheme_->tracker_count(), trackers_before);
}

TEST_F(FailoverTest, PromotionIsIdempotent) {
  HAgent& backup = *scheme_->backup_hagent();
  for (int i = 0; i < 3; ++i) {
    cluster_.system.send(backup.tree().leaves().front(),
                         platform::AgentAddress{backup.node(), backup.id()},
                         PromoteRequest{}, PromoteRequest::kWireBytes);
    cluster_.run_for(sim::SimTime::millis(20));
  }
  EXPECT_EQ(backup.role(), HAgent::Role::kPrimary);
  EXPECT_EQ(backup.stats().promotions, 1u);
}

TEST_F(FailoverTest, ReplicationOffMeansNoBackup) {
  MechanismConfig plain;
  HashLocationScheme scheme(cluster_.system, plain, 4);
  EXPECT_EQ(scheme.backup_hagent(), nullptr);
}

}  // namespace
}  // namespace agentloc::core
