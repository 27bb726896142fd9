#include "workload/tagent.hpp"

#include <limits>
#include <stdexcept>
#include <utility>

namespace agentloc::workload {

TAgent::TAgent(core::LocationScheme& scheme, const Config& config)
    : scheme_(scheme),
      rng_(config.seed),
      residence_(config.residence),
      start_stagger_(config.start_stagger),
      exponential_residence_(config.exponential_residence) {}

void TAgent::on_start() {
  if (start_stagger_ > sim::SimTime::zero()) {
    // Admission spread: draw the delay from this agent's own stream so the
    // schedule is fixed by (seed, id), not by population size.
    const sim::SimTime delay = sim::SimTime::millis(
        rng_.uniform(0.0, start_stagger_.as_millis()));
    arm(delay, &TAgent::admit);
    return;
  }
  admit();
}

void TAgent::admit() {
  admitted_ = true;
  scheme_.register_agent(*this, [this](bool ok) { registered_ = ok; });
  if (mobile_) schedule_move();
}

void TAgent::on_dispose() {
  // The agent object outlives this call until the platform's next sweep;
  // a pending admission or move must not fire on it.
  cancel_timer();
  // Deregistering requires an active agent; on_dispose runs before removal.
  scheme_.deregister_agent(*this);
}

void TAgent::set_mobile(bool mobile) {
  if (mobile_ == mobile) return;
  mobile_ = mobile;
  // A pending admission must stay armed: admit() starts roaming if mobile.
  if (!admitted_) return;
  if (mobile) {
    schedule_move();
  } else {
    cancel_timer();
  }
}

void TAgent::arm(sim::SimTime delay, void (TAgent::*fn)()) {
  cancel_timer();
  timer_ = system().simulator().schedule_after(delay, [this, fn] {
    timer_ = sim::kInvalidEvent;
    (this->*fn)();
  });
}

void TAgent::cancel_timer() {
  if (timer_ == sim::kInvalidEvent) return;
  system().simulator().cancel(timer_);
  timer_ = sim::kInvalidEvent;
}

void TAgent::schedule_move() {
  const sim::SimTime dwell =
      exponential_residence_
          ? sim::SimTime::millis(rng_.exponential(residence_.as_millis()))
          : residence_;
  arm(dwell, &TAgent::do_move);
}

void TAgent::do_move() {
  const net::NodeId destination = next_destination(rng_);
  if (destination == net::kNoNode) {
    schedule_move();
    return;
  }
  system().migrate(id(), destination);
}

net::NodeId TAgent::next_destination(util::Rng& rng) {
  const auto nodes = static_cast<net::NodeId>(system().node_count());
  if (nodes < 2) return net::kNoNode;
  // Uniform choice among the *other* nodes.
  auto destination = static_cast<net::NodeId>(rng.next_below(nodes - 1));
  if (destination >= node()) ++destination;
  return destination;
}

void TAgent::on_message(const platform::Message& message) {
  // Location-mechanism control traffic (e.g. a wrong-IAgent notice) goes to
  // the scheme; a TAgent has no other inbound protocol.
  scheme_.handle_agent_message(*this, message);
}

void TAgent::on_delivery_failure(const platform::DeliveryFailure& failure) {
  scheme_.handle_delivery_failure(*this, failure);
}

void TAgent::on_arrival(net::NodeId from_node) {
  (void)from_node;
  if (moves_ == std::numeric_limits<std::uint32_t>::max()) {
    throw std::overflow_error("TAgent::on_arrival: move count exhausted");
  }
  ++moves_;
  // Paper §2.3 ("Agent Movement"): each time the agent moves, it informs its
  // IAgent about its new location.
  scheme_.update_location(*this, [](bool) {});
  if (mobile_) schedule_move();
}

ClusteredTAgent::ClusteredTAgent(core::LocationScheme& scheme,
                                 const Config& config,
                                 std::vector<net::NodeId> node_pool)
    : TAgent(scheme, config), node_pool_(std::move(node_pool)) {}

net::NodeId ClusteredTAgent::next_destination(util::Rng& rng) {
  // Walk the pool to the drawn entry, skipping the current node.
  std::size_t options = 0;
  for (const net::NodeId candidate : node_pool_) {
    if (candidate != node()) ++options;
  }
  if (options == 0) return net::kNoNode;
  std::uint64_t pick = rng.next_below(options);
  for (const net::NodeId candidate : node_pool_) {
    if (candidate == node()) continue;
    if (pick-- == 0) return candidate;
  }
  return net::kNoNode;  // unreachable: pick < options
}

}  // namespace agentloc::workload
