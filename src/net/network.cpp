#include "net/network.hpp"

#include <stdexcept>
#include <utility>

namespace agentloc::net {

Network::Network(sim::Simulator& simulator, std::size_t node_count,
                 std::unique_ptr<LatencyModel> latency, util::Rng rng)
    : simulator_(simulator),
      node_count_(node_count),
      latency_(std::move(latency)),
      rng_(rng) {
  if (node_count_ == 0) {
    throw std::invalid_argument("Network: node_count must be > 0");
  }
  if (!latency_) {
    throw std::invalid_argument("Network: latency model required");
  }
}

bool Network::send(NodeId from, NodeId to, std::size_t bytes,
                   std::function<void()> deliver) {
  const TransmitPlan plan = plan_transmission(from, to, bytes);
  for (int copy = 0; copy < plan.copies; ++copy) {
    simulator_.schedule_after(plan.delay[copy], [this, deliver] {
      note_delivered();
      deliver();
    });
  }
  return plan.copies > 0;
}

TransmitPlan Network::plan_transmission(NodeId from, NodeId to,
                                        std::size_t bytes) {
  if (from >= node_count_ || to >= node_count_) {
    throw std::out_of_range("Network::send: node id out of range");
  }
  ++stats_.messages_sent;
  stats_.bytes_sent += bytes;

  TransmitPlan plan;
  if (from != to && faults_.partitioned(from, to)) {
    ++stats_.messages_dropped;
    return plan;
  }
  // RNG draw order (drop, latency, duplicate, latency) is part of the
  // determinism contract — seeded runs must replay identically whether the
  // caller goes through `send` or schedules its own deliveries.
  if (from != to && rng_.chance(faults_.drop_probability)) {
    ++stats_.messages_dropped;
    return plan;
  }
  plan.delay[0] = latency_->latency(from, to, bytes, rng_);
  plan.copies = 1;
  if (from != to && rng_.chance(faults_.duplicate_probability)) {
    ++stats_.messages_duplicated;
    plan.delay[1] = latency_->latency(from, to, bytes, rng_);
    plan.copies = 2;
  }
  return plan;
}

}  // namespace agentloc::net
