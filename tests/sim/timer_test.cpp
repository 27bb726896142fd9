#include "sim/timer.hpp"

#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <string>

namespace agentloc::sim {
namespace {

TEST(PeriodicTimer, FiresEveryPeriod) {
  Simulator sim;
  int ticks = 0;
  PeriodicTimer timer(sim, SimTime::millis(10), [&] { ++ticks; });
  timer.start();
  sim.run_until(SimTime::millis(55));
  EXPECT_EQ(ticks, 5);
}

TEST(PeriodicTimer, DoesNotFireUntilStarted) {
  Simulator sim;
  int ticks = 0;
  PeriodicTimer timer(sim, SimTime::millis(10), [&] { ++ticks; });
  sim.run_until(SimTime::millis(100));
  EXPECT_EQ(ticks, 0);
  EXPECT_FALSE(timer.running());
}

TEST(PeriodicTimer, StopHaltsFiring) {
  Simulator sim;
  int ticks = 0;
  PeriodicTimer timer(sim, SimTime::millis(10), [&] { ++ticks; });
  timer.start();
  sim.run_until(SimTime::millis(25));
  timer.stop();
  EXPECT_FALSE(timer.running());
  sim.run_until(SimTime::millis(100));
  EXPECT_EQ(ticks, 2);
}

TEST(PeriodicTimer, CallbackMayStopItself) {
  Simulator sim;
  int ticks = 0;
  PeriodicTimer timer(sim, SimTime::millis(10), [&] {
    if (++ticks == 3) timer.stop();
  });
  timer.start();
  sim.run_until(SimTime::seconds(1));
  EXPECT_EQ(ticks, 3);
}

TEST(PeriodicTimer, DestructionCancelsPendingTick) {
  Simulator sim;
  int ticks = 0;
  {
    PeriodicTimer timer(sim, SimTime::millis(10), [&] { ++ticks; });
    timer.start();
    sim.run_until(SimTime::millis(15));
  }
  sim.run_until(SimTime::millis(100));
  EXPECT_EQ(ticks, 1);
}

TEST(PeriodicTimer, RestartResetsPhase) {
  Simulator sim;
  int ticks = 0;
  PeriodicTimer timer(sim, SimTime::millis(10), [&] { ++ticks; });
  timer.start();
  sim.run_until(SimTime::millis(5));
  timer.start();  // re-arm: next tick at t=15
  sim.run_until(SimTime::millis(12));
  EXPECT_EQ(ticks, 0);
  sim.run_until(SimTime::millis(16));
  EXPECT_EQ(ticks, 1);
}

TEST(Timeout, FiresOnce) {
  Simulator sim;
  int fired = 0;
  Timeout timeout(sim);
  timeout.arm(SimTime::millis(5), [&] { ++fired; });
  EXPECT_TRUE(timeout.pending());
  sim.run_until(SimTime::millis(100));
  EXPECT_EQ(fired, 1);
  EXPECT_FALSE(timeout.pending());
}

TEST(Timeout, ReArmReplacesPrevious) {
  Simulator sim;
  int first = 0, second = 0;
  Timeout timeout(sim);
  timeout.arm(SimTime::millis(5), [&] { ++first; });
  timeout.arm(SimTime::millis(10), [&] { ++second; });
  sim.run_until(SimTime::millis(100));
  EXPECT_EQ(first, 0);
  EXPECT_EQ(second, 1);
}

TEST(Timeout, CancelPreventsFiring) {
  Simulator sim;
  int fired = 0;
  Timeout timeout(sim);
  timeout.arm(SimTime::millis(5), [&] { ++fired; });
  timeout.cancel();
  sim.run_until(SimTime::millis(100));
  EXPECT_EQ(fired, 0);
}

TEST(Timeout, DestructionCancels) {
  Simulator sim;
  int fired = 0;
  {
    Timeout timeout(sim);
    timeout.arm(SimTime::millis(5), [&] { ++fired; });
  }
  sim.run_until(SimTime::millis(100));
  EXPECT_EQ(fired, 0);
}

// A Timeout keeps its callback as a member. The callbacks below capture a
// 32-character string, so each lives on the heap inside its std::function:
// were a callback run in place, re-arming or destroying the timeout would
// free it mid-call, and reading the capture afterwards would be a
// heap-use-after-free that the asan-ubsan preset reports.

TEST(Timeout, CallbackMayReArmItself) {
  Simulator sim;
  Timeout timeout(sim);
  int rounds = 0;
  std::string seen;
  std::function<void(char)> arm = [&](char round) {
    timeout.arm(SimTime::millis(5),
                [&arm, &rounds, &seen, round, tag = std::string(32, round)] {
                  ++rounds;
                  if (round < 'c') arm(static_cast<char>(round + 1));
                  seen += tag.substr(0, 1);  // after the re-arm replaced it
                });
  };
  arm('a');
  sim.run_until(SimTime::millis(100));
  EXPECT_EQ(rounds, 3);
  EXPECT_EQ(seen, "abc");
  EXPECT_FALSE(timeout.pending());
}

TEST(Timeout, CallbackMayDestroyItsOwnerThenReadItsCaptures) {
  // The hash scheme's watch timeout erases the PendingWatch that owns it.
  struct Owner {
    explicit Owner(Simulator& simulator) : timeout(simulator) {}
    Timeout timeout;
  };
  Simulator sim;
  auto owner = std::make_unique<Owner>(sim);
  std::string seen;
  owner->timeout.arm(SimTime::millis(5),
                     [&owner, &seen, tag = std::string(32, 'w')] {
                       owner.reset();
                       seen = tag;
                     });
  sim.run_until(SimTime::millis(100));
  EXPECT_EQ(owner, nullptr);
  EXPECT_EQ(seen, std::string(32, 'w'));
}

TEST(Timeout, CancelReleasesTheCallbacksCapturesAtOnce) {
  Simulator sim;
  Timeout timeout(sim);
  const auto token = std::make_shared<int>(7);
  timeout.arm(SimTime::millis(5), [token] {});
  EXPECT_EQ(token.use_count(), 2);
  timeout.cancel();
  EXPECT_EQ(token.use_count(), 1);

  // Re-arming releases the replaced callback's, and firing the callback's
  // own once it returns.
  timeout.arm(SimTime::millis(5), [token] {});
  timeout.arm(SimTime::millis(5), [] {});
  EXPECT_EQ(token.use_count(), 1);
  timeout.arm(SimTime::millis(5), [token] {});
  sim.run_until(SimTime::millis(100));
  EXPECT_EQ(token.use_count(), 1);
}

}  // namespace
}  // namespace agentloc::sim
