#pragma once

#include <cstdint>
#include <limits>
#include <stdexcept>

#include "platform/message.hpp"

namespace agentloc::platform {

class AgentSystem;

/// Base class for every agent hosted by the platform.
///
/// Mirrors the Aglets programming model the paper implements against:
/// agents have a lifecycle (`on_start` after creation, `on_arrival` after
/// each migration, `on_dispose` before destruction), receive asynchronous
/// messages, and may themselves migrate and send messages through the
/// hosting system. All callbacks run on the simulator thread; an agent never
/// runs while in transit.
class Agent {
 public:
  virtual ~Agent() = default;

  AgentId id() const noexcept { return id_; }

  /// Node currently hosting this agent. Valid except while in transit.
  net::NodeId node() const noexcept { return node_; }

  /// The seq a scheme stamps on this agent's next register, update or
  /// deregister: 1, 2, 3, ... over its whole life, so a re-registered agent
  /// continues above its own tombstone. Throws rather than wrap at 2^32.
  std::uint64_t next_report_seq() {
    if (report_seq_ == std::numeric_limits<std::uint32_t>::max()) {
      throw std::overflow_error("Agent::next_report_seq: seq exhausted");
    }
    return ++report_seq_;
  }

  /// Size of the serialized agent image charged when migrating. The default
  /// matches a small Java agent (class refs + state); stateful agents (e.g.
  /// IAgents carrying their location tables) override it.
  virtual std::size_t serialized_size() const { return 2048; }

  /// Invoked once, after the agent is installed at its creation node.
  virtual void on_start() {}

  /// Invoked after a migration completes, at the new node.
  virtual void on_arrival(net::NodeId from_node) { (void)from_node; }

  /// Invoked for every non-reply message addressed to this agent.
  virtual void on_message(const Message& message) { (void)message; }

  /// Invoked when the platform bounces an undeliverable send of ours.
  virtual void on_delivery_failure(const DeliveryFailure& failure) {
    (void)failure;
  }

  /// Invoked just before the platform destroys the agent.
  virtual void on_dispose() {}

 protected:
  /// The hosting system. Only valid once the agent has been installed
  /// (i.e. from `on_start` onwards).
  AgentSystem& system() const noexcept { return *system_; }

 private:
  friend class AgentSystem;

  AgentSystem* system_ = nullptr;
  AgentId id_ = kNoAgent;
  net::NodeId node_ = net::kNoNode;
  std::uint32_t report_seq_ = 0;  // fills the padding after `node_`
};

static_assert(sizeof(Agent) == 32, "the report seq rides in padding");

}  // namespace agentloc::platform
