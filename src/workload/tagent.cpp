#include "workload/tagent.hpp"

namespace agentloc::workload {

TAgent::TAgent(core::LocationScheme& scheme, const Config& config)
    : scheme_(scheme),
      rng_(config.seed),
      residence_(config.residence),
      start_stagger_(config.start_stagger),
      node_pool_(config.node_pool.empty()
                     ? nullptr
                     : std::make_unique<const std::vector<net::NodeId>>(
                           config.node_pool)),
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
  net::NodeId destination = node();
  if (node_pool_) {
    // Cluster mobility: uniform over the pool minus the current node.
    std::size_t options = 0;
    for (const net::NodeId candidate : *node_pool_) {
      if (candidate != node()) ++options;
    }
    if (options == 0) {
      schedule_move();
      return;
    }
    std::uint64_t pick = rng_.next_below(options);
    for (const net::NodeId candidate : *node_pool_) {
      if (candidate == node()) continue;
      if (pick-- == 0) {
        destination = candidate;
        break;
      }
    }
  } else {
    const auto nodes = static_cast<net::NodeId>(system().node_count());
    if (nodes < 2) {
      schedule_move();
      return;
    }
    // Uniform choice among the *other* nodes.
    destination = static_cast<net::NodeId>(rng_.next_below(nodes - 1));
    if (destination >= node()) ++destination;
  }
  system().migrate(id(), destination);
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
  ++moves_;
  // Paper §2.3 ("Agent Movement"): each time the agent moves, it informs its
  // IAgent about its new location.
  scheme_.update_location(*this, [](bool) {});
  if (mobile_) schedule_move();
}

}  // namespace agentloc::workload
