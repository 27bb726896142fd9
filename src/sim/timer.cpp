#include "sim/timer.hpp"

#include <utility>

namespace agentloc::sim {

PeriodicTimer::PeriodicTimer(Simulator& simulator, SimTime period, Tick tick)
    : simulator_(simulator), period_(period), tick_(std::move(tick)) {}

PeriodicTimer::~PeriodicTimer() { stop(); }

void PeriodicTimer::start() {
  stop();
  arm();
}

void PeriodicTimer::stop() {
  if (event_ != kInvalidEvent) {
    simulator_.cancel(event_);
    event_ = kInvalidEvent;
  }
}

void PeriodicTimer::arm() {
  event_ = simulator_.schedule_after(period_, [this] {
    event_ = kInvalidEvent;
    // Re-arm before the tick so the callback may call stop() to cancel the
    // next firing.
    arm();
    tick_();
  });
}

void Timeout::arm(SimTime delay, std::function<void()> fn) {
  cancel();
  fn_ = std::move(fn);
  event_ = simulator_.schedule_after(delay, [this] { fire(); });
}

void Timeout::fire() {
  event_ = kInvalidEvent;
  // Run a local: the callback may re-arm (replacing fn_) or destroy this
  // timeout (destroying fn_).
  const std::function<void()> fn = std::exchange(fn_, nullptr);
  fn();
}

void Timeout::cancel() {
  if (event_ != kInvalidEvent) {
    simulator_.cancel(event_);
    event_ = kInvalidEvent;
  }
  fn_ = nullptr;
}

}  // namespace agentloc::sim
