// Edge cases of the inbox lifecycle: agents that vanish (dispose, migrate)
// while messages are queued or being served, and RPCs whose callee moves
// away mid-call. These paths unlink inbox chains from the shared message
// pool, free its slots while bounces transmit into it, and re-find records
// after dispatch, so they run under the sanitizer presets as well (CI labels
// every test `sanitize` there).

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "platform/agent_system.hpp"

namespace agentloc::platform {
namespace {

struct Note {
  int value = 0;
};

class Recorder : public Agent {
 public:
  void on_message(const Message& message) override {
    if (const auto* note = message.body_as<Note>()) {
      served.push_back(note->value);
      if (dispose_on_value == note->value) system().dispose(id());
    }
  }

  void on_delivery_failure(const DeliveryFailure&) override { ++bounces; }

  std::vector<int> served;
  int dispose_on_value = -1;
  int bounces = 0;
};

class InboxLifecycleTest : public ::testing::Test {
 protected:
  InboxLifecycleTest()
      : network_(sim_, 4,
                 std::make_unique<net::FixedLatencyModel>(
                     sim::SimTime::millis(1)),
                 util::Rng(11)),
        system_(sim_, network_, make_config()) {}

  static AgentSystem::Config make_config() {
    AgentSystem::Config config;
    config.service_time = sim::SimTime::micros(100);
    return config;
  }

  sim::Simulator sim_;
  net::Network network_;
  AgentSystem system_;
};

TEST_F(InboxLifecycleTest, DisposeWhileServingBouncesTheQueueRemainder) {
  Recorder& a = system_.create<Recorder>(0);
  Recorder& b = system_.create<Recorder>(1);
  b.dispose_on_value = 1;  // b kills itself while serving the first message
  sim_.run();
  const AgentId b_id = b.id();
  for (int i = 1; i <= 4; ++i) {
    system_.send(a.id(), AgentAddress{1, b_id}, Note{i}, 64);
  }
  sim_.run();
  EXPECT_FALSE(system_.exists(b_id));
  // Only the first message was served; the three still queued bounced back.
  EXPECT_EQ(a.bounces, 3);
  EXPECT_EQ(system_.stats().messages_bounced, 3u);
  EXPECT_EQ(system_.stats().messages_processed,
            system_.stats().messages_sent - 3u);
}

TEST_F(InboxLifecycleTest, MigrateWithQueuedMessagesBouncesThem) {
  Recorder& a = system_.create<Recorder>(0);
  Recorder& b = system_.create<Recorder>(1);
  sim_.run();
  for (int i = 1; i <= 5; ++i) {
    system_.send(a.id(), AgentAddress{1, b.id()}, Note{i}, 64);
  }
  // All five land at t=1ms; stop after the first completes service, with
  // four still in the ring inbox, and yank b away.
  sim_.run_until(sim::SimTime::micros(1150));
  ASSERT_EQ(b.served.size(), 1u);
  system_.migrate(b.id(), 2);
  sim_.run();
  EXPECT_EQ(b.node(), 2u);
  EXPECT_EQ(b.served.size(), 1u);  // the queued four were never served
  EXPECT_EQ(a.bounces, 4);
  // The recycled inbox still works at the new home.
  system_.send(a.id(), AgentAddress{2, b.id()}, Note{99}, 64);
  sim_.run();
  ASSERT_EQ(b.served.size(), 2u);
  EXPECT_EQ(b.served.back(), 99);
}

TEST_F(InboxLifecycleTest, RpcCompletesWithFailureWhenCalleeMigrates) {
  Recorder& a = system_.create<Recorder>(0);
  Recorder& b = system_.create<Recorder>(1);
  sim_.run();
  RpcResult got;
  bool done = false;
  system_.request(a.id(), AgentAddress{1, b.id()}, Note{1}, 64,
                  [&](RpcResult result) {
                    got = std::move(result);
                    done = true;
                  });
  // The request is in flight; the callee departs before it lands.
  system_.migrate(b.id(), 2);
  sim_.run();
  ASSERT_TRUE(done);
  EXPECT_EQ(got.status, RpcResult::Status::kDeliveryFailure);
  EXPECT_EQ(system_.stats().rpc_delivery_failures, 1u);
  EXPECT_EQ(system_.stats().rpc_timeouts, 0u);
}

}  // namespace
}  // namespace agentloc::platform
