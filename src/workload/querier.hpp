#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/scheme.hpp"
#include "sim/timer.hpp"
#include "util/rng.hpp"
#include "util/summary.hpp"

namespace agentloc::workload {

/// A stationary agent issuing location queries in closed loop: pick a random
/// TAgent, measure the time until the mechanism reports its location, think,
/// repeat. This is the paper's measurement client — "the average response
/// time of a query for the location of a TAgent selected randomly" (§5).
class QuerierAgent : public platform::Agent {
 public:
  struct Config {
    /// Queries to issue before completing (0 = unlimited).
    std::size_t quota = 500;

    /// Mean of the exponentially distributed pause between a completed
    /// query and the next one.
    sim::SimTime think = sim::SimTime::millis(100);

    /// Zipf skew over the target population (0 = uniform, the paper's
    /// "selected randomly").
    double target_skew = 0.0;

    std::uint64_t seed = 1;
  };

  QuerierAgent(core::LocationScheme& scheme, const Config& config,
               std::vector<platform::AgentId> targets,
               std::function<void()> on_complete = nullptr);

  void on_start() override;

  /// Latency of each completed query, in milliseconds.
  const util::Summary& latencies_ms() const noexcept { return latencies_; }

  /// Request/response cycles per query.
  const util::Summary& attempts() const noexcept { return attempts_; }

  std::uint64_t found() const noexcept { return found_; }
  std::uint64_t failed() const noexcept { return failed_; }
  std::uint64_t wrong_location() const noexcept { return wrong_location_; }
  bool done() const noexcept { return done_; }

 private:
  void issue();
  void complete();

  core::LocationScheme& scheme_;
  Config config_;
  std::vector<platform::AgentId> targets_;
  std::function<void()> on_complete_;
  util::Rng rng_;
  std::unique_ptr<sim::Timeout> think_timer_;

  util::Summary latencies_;
  util::Summary attempts_;
  std::uint64_t found_ = 0;
  std::uint64_t failed_ = 0;
  std::uint64_t wrong_location_ = 0;
  std::uint64_t issued_ = 0;
  bool done_ = false;
};

}  // namespace agentloc::workload
