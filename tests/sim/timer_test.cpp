#include "sim/timer.hpp"

#include <gtest/gtest.h>

#include <memory>

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

}  // namespace
}  // namespace agentloc::sim
