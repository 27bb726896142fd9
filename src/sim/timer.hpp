#pragma once

#include <functional>

#include "sim/simulator.hpp"

namespace agentloc::sim {

/// Re-arming periodic callback.
///
/// Wraps the schedule/cancel dance components otherwise repeat: IAgents use
/// one to roll their load-rate windows, workload drivers use one to emit
/// queries at a fixed rate. The timer stops cleanly when destroyed, so it can
/// be a plain member of the owning object.
class PeriodicTimer {
 public:
  using Tick = std::function<void()>;

  PeriodicTimer(Simulator& simulator, SimTime period, Tick tick);
  PeriodicTimer(const PeriodicTimer&) = delete;
  PeriodicTimer& operator=(const PeriodicTimer&) = delete;
  ~PeriodicTimer();

  /// Arm (or re-arm) the timer; first tick fires one period from now.
  void start();

  /// Stop without destroying; `start` re-arms.
  void stop();

  bool running() const noexcept { return event_ != kInvalidEvent; }

  SimTime period() const noexcept { return period_; }

 private:
  void arm();

  Simulator& simulator_;
  SimTime period_;
  Tick tick_;
  EventId event_ = kInvalidEvent;
};

/// One-shot cancellable timeout with the same ownership story.
class Timeout {
 public:
  explicit Timeout(Simulator& simulator) : simulator_(simulator) {}
  Timeout(const Timeout&) = delete;
  Timeout& operator=(const Timeout&) = delete;
  ~Timeout() { cancel(); }

  /// Schedule `fn` after `delay`, cancelling any previously pending arm.
  void arm(SimTime delay, std::function<void()> fn);

  void cancel();

  bool pending() const noexcept { return event_ != kInvalidEvent; }

 private:
  Simulator& simulator_;
  EventId event_ = kInvalidEvent;
};

}  // namespace agentloc::sim
