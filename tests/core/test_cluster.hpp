#pragma once

// Shared fixture for core-protocol tests: a small deterministic cluster
// (fixed 1 ms links, 100 us service time) plus a scriptable agent that
// records everything it receives.

#include <vector>

#include "core/protocol.hpp"
#include "net/network.hpp"
#include "platform/agent_system.hpp"
#include "sim/simulator.hpp"

namespace agentloc::core::testing {

struct TestCluster {
  explicit TestCluster(std::size_t nodes = 4,
                       sim::SimTime service = sim::SimTime::micros(100))
      : network(simulator, nodes,
                std::make_unique<net::FixedLatencyModel>(sim::SimTime::millis(1)),
                util::Rng(7)),
        system(simulator, network, make_config(service)) {}

  static platform::AgentSystem::Config make_config(sim::SimTime service) {
    platform::AgentSystem::Config config;
    config.service_time = service;
    return config;
  }

  void run_for(sim::SimTime span) { simulator.run_until(simulator.now() + span); }

  /// Run in 10 ms steps until `done()` holds, for at most `limit`.
  template <typename Done>
  void run_until(Done done, sim::SimTime limit) {
    const sim::SimTime deadline = simulator.now() + limit;
    while (!done() && simulator.now() < deadline) {
      run_for(sim::SimTime::millis(10));
    }
  }

  sim::Simulator simulator;
  net::Network network;
  platform::AgentSystem system;
};

/// Records received messages and delivery failures; can send/reply.
class ScriptAgent : public platform::Agent {
 public:
  void on_message(const platform::Message& message) override {
    received.push_back(message);
  }

  void on_delivery_failure(const platform::DeliveryFailure& failure) override {
    failures.push_back(failure);
  }

  /// Messages of payload type T, in arrival order.
  template <typename T>
  std::vector<T> bodies() const {
    std::vector<T> out;
    for (const auto& message : received) {
      if (const T* body = message.body_as<T>()) out.push_back(*body);
    }
    return out;
  }

  template <typename T>
  std::size_t count() const {
    std::size_t n = 0;
    for (const auto& message : received) {
      if (message.body_as<T>() != nullptr) ++n;
    }
    return n;
  }

  std::vector<platform::Message> received;
  std::vector<platform::DeliveryFailure> failures;
};

/// ScriptAgent that additionally acks HandoffTransfers like an IAgent would.
class AckingScriptAgent : public ScriptAgent {
 public:
  void on_message(const platform::Message& message) override {
    ScriptAgent::on_message(message);
    if (message.body_as<HandoffTransfer>() != nullptr) {
      system().reply(message, id(), HandoffAck{}, HandoffAck::kWireBytes);
    }
  }
};

}  // namespace agentloc::core::testing
