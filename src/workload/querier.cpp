#include "workload/querier.hpp"

#include <utility>

namespace agentloc::workload {

QuerierAgent::QuerierAgent(
    core::LocationScheme& scheme, const Config& config,
    std::shared_ptr<const std::vector<platform::AgentId>> targets,
    std::function<void()> on_complete)
    : scheme_(scheme),
      config_(config),
      targets_(std::move(targets)),
      on_complete_(std::move(on_complete)),
      rng_(config.seed) {}

QuerierAgent::QuerierAgent(core::LocationScheme& scheme, const Config& config,
                           std::vector<platform::AgentId> targets,
                           std::function<void()> on_complete)
    : QuerierAgent(scheme, config,
                   std::make_shared<const std::vector<platform::AgentId>>(
                       std::move(targets)),
                   std::move(on_complete)) {}

void QuerierAgent::on_start() {
  think_timer_ = std::make_unique<sim::Timeout>(system().simulator());
  issue();
}

void QuerierAgent::issue() {
  const std::vector<platform::AgentId>& targets = *targets_;
  if (targets.empty() || (config_.quota != 0 && issued_ >= config_.quota)) {
    complete();
    return;
  }
  ++issued_;
  const platform::AgentId target =
      targets[rng_.zipf(targets.size(), config_.target_skew)];
  const sim::SimTime started = system().now();
  scheme_.locate(*this, target, [this, started, target](
                                    const core::LocateOutcome& outcome) {
    latencies_.add((system().now() - started).as_millis());
    attempts_.add(static_cast<double>(outcome.attempts));
    if (outcome.found) {
      ++found_;
      // Staleness check against platform ground truth. The target may have
      // moved since the IAgent answered (node_of is nullopt mid-flight);
      // `wrong_location` therefore measures how often an answer is already
      // outdated on arrival, not a protocol error.
      const auto truth = system().node_of(target);
      if (truth && *truth != outcome.node) ++wrong_location_;
    } else {
      ++failed_;
    }
    const sim::SimTime think =
        sim::SimTime::millis(rng_.exponential(config_.think.as_millis()));
    think_timer_->arm(think, [this] { issue(); });
  });
}

void QuerierAgent::complete() {
  if (done_) return;
  done_ = true;
  if (on_complete_) on_complete_();
}

}  // namespace agentloc::workload
