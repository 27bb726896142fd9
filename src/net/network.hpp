#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <set>
#include <utility>

#include "net/latency.hpp"
#include "sim/simulator.hpp"
#include "util/rng.hpp"

namespace agentloc::net {

/// Fault-injection plan applied to every transmission.
///
/// Used by the robustness test suites: the location protocol must converge
/// despite dropped or duplicated messages (requests are retried end-to-end)
/// and must keep node-local operations working across partitions.
struct FaultPlan {
  double drop_probability = 0.0;
  double duplicate_probability = 0.0;

  /// Unordered node pairs that currently cannot exchange messages.
  std::set<std::pair<NodeId, NodeId>> partitions;

  bool partitioned(NodeId a, NodeId b) const {
    if (a > b) std::swap(a, b);
    return partitions.contains({a, b});
  }
  void set_partitioned(NodeId a, NodeId b, bool value) {
    if (a > b) std::swap(a, b);
    if (value) {
      partitions.insert({a, b});
    } else {
      partitions.erase({a, b});
    }
  }
};

/// Aggregate transmission counters, exposed to benches that report message
/// overhead alongside location time.
struct NetworkStats {
  std::uint64_t messages_sent = 0;
  std::uint64_t messages_delivered = 0;
  std::uint64_t messages_dropped = 0;
  std::uint64_t messages_duplicated = 0;
  std::uint64_t bytes_sent = 0;

  /// Add `other`'s counters (all of them are flows) — merging replications.
  void add_flows(const NetworkStats& other) noexcept {
    messages_sent += other.messages_sent;
    messages_delivered += other.messages_delivered;
    messages_dropped += other.messages_dropped;
    messages_duplicated += other.messages_duplicated;
    bytes_sent += other.bytes_sent;
  }
};

/// Outcome of planning one transmission: how many copies the fault plan let
/// through (0 = swallowed, 2 = duplicated) and the sampled latency of each.
struct TransmitPlan {
  int copies = 0;
  sim::SimTime delay[2] = {sim::SimTime::zero(), sim::SimTime::zero()};
};

/// Simulated datagram network.
///
/// `send` charges the latency model for the serialized size and schedules the
/// delivery thunk on the simulator; the caller (the agent platform) captures
/// its typed message inside the thunk, so this layer stays payload-agnostic.
/// Delivery is unordered (jitter may reorder) and, under a fault plan,
/// unreliable — exactly the properties the location protocol must tolerate.
///
/// Hot-path callers that cannot afford a `std::function` capture (the agent
/// platform's message plane) use `plan_transmission` + `note_delivered`
/// instead: the network samples faults and latency in exactly the same RNG
/// order as `send`, but the caller schedules its own (small, allocation-free)
/// delivery events.
class Network {
 public:
  Network(sim::Simulator& simulator, std::size_t node_count,
          std::unique_ptr<LatencyModel> latency, util::Rng rng);

  std::size_t node_count() const noexcept { return node_count_; }
  sim::Simulator& simulator() noexcept { return simulator_; }

  /// Transmit `bytes` from `from` to `to`; on (each) delivery run `deliver`.
  /// Returns false when the fault plan swallowed the message entirely.
  bool send(NodeId from, NodeId to, std::size_t bytes,
            std::function<void()> deliver);

  /// Sample the fault plan and latency model for one transmission, counting
  /// it in the stats, without scheduling anything. The caller must schedule
  /// `plan.copies` deliveries at the given delays and call `note_delivered`
  /// as each one fires.
  TransmitPlan plan_transmission(NodeId from, NodeId to, std::size_t bytes);

  /// Record one delivery planned via `plan_transmission`.
  void note_delivered() noexcept { ++stats_.messages_delivered; }

  FaultPlan& faults() noexcept { return faults_; }
  const NetworkStats& stats() const noexcept { return stats_; }

 private:
  sim::Simulator& simulator_;
  std::size_t node_count_;
  std::unique_ptr<LatencyModel> latency_;
  util::Rng rng_;
  FaultPlan faults_;
  NetworkStats stats_;
};

}  // namespace agentloc::net
