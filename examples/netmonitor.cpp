// Netmonitor: roaming information-gathering agents (the paper's second
// motivating use: agents that support "searching for information … in
// rapidly evolving networks" over intermittent, light-weight nodes).
//
// A fleet of monitor agents sweeps the network measuring per-node load. An
// operator console periodically locates a monitor and pulls its latest
// readings. Halfway through, the fleet triples — demonstrating how the
// location mechanism adds IAgents as the population (and update rate) grows.
//
// Run: ./build/examples/netmonitor [--nodes=24 --monitors=4 --seed=1]

#include <cstdio>
#include <map>
#include <vector>

#include "core/hash_scheme.hpp"
#include "platform/agent_system.hpp"
#include "util/flags.hpp"
#include "util/rng.hpp"

using namespace agentloc;

namespace {

struct PullReadings {
  static constexpr std::size_t kWireBytes = 24;
};

struct Readings {
  std::map<net::NodeId, double> load_by_node;
  std::size_t wire_bytes() const { return 24 + 12 * load_by_node.size(); }
};

/// Sweeps the network round-robin, sampling a synthetic load metric.
class MonitorAgent : public platform::Agent {
 public:
  MonitorAgent(core::LocationScheme& scheme, std::uint64_t seed)
      : scheme_(scheme), rng_(seed) {}

  std::size_t serialized_size() const override {
    return 2048 + 12 * readings_.size();
  }

  void on_start() override {
    scheme_.register_agent(*this, [](bool) {});
    sample_and_move();
  }

  void on_arrival(net::NodeId) override {
    scheme_.update_location(*this, [](bool) {});
    sample_and_move();
  }

  void on_message(const platform::Message& message) override {
    if (scheme_.handle_agent_message(*this, message)) return;
    if (message.body_as<PullReadings>() != nullptr) {
      Readings readings{readings_};
      const std::size_t bytes = readings.wire_bytes();
      system().reply(message, id(), std::move(readings), bytes);
    }
  }

  void on_delivery_failure(const platform::DeliveryFailure& failure) override {
    scheme_.handle_delivery_failure(*this, failure);
  }

  std::size_t nodes_sampled() const { return readings_.size(); }

 private:
  void sample_and_move() {
    readings_[node()] = rng_.uniform() * 100.0;  // synthetic load metric
    system().simulator().schedule_after(
        sim::SimTime::millis(120 + rng_.uniform() * 60), [this] {
          if (!system().node_of(id())) return;
          const auto nodes = static_cast<net::NodeId>(system().node_count());
          auto next = static_cast<net::NodeId>(rng_.next_below(nodes - 1));
          if (next >= node()) ++next;
          system().migrate(id(), next);
        });
  }

  core::LocationScheme& scheme_;
  util::Rng rng_;
  std::map<net::NodeId, double> readings_;
};

/// Stationary console: locates monitors and aggregates their readings.
class OperatorConsole : public platform::Agent {
 public:
  explicit OperatorConsole(core::LocationScheme& scheme) : scheme_(scheme) {}

  void on_start() override { poll(); }

  void track(platform::AgentId monitor) { monitors_.push_back(monitor); }

  std::size_t reports_received = 0;
  std::size_t locate_failures = 0;
  std::map<net::NodeId, double> dashboard;

 private:
  void poll() {
    if (!monitors_.empty()) {
      const platform::AgentId monitor = monitors_[cursor_++ % monitors_.size()];
      scheme_.locate(*this, monitor,
                     [this, monitor](const core::LocateOutcome& outcome) {
                       if (!outcome.found) {
                         ++locate_failures;
                         return;
                       }
                       pull_from(monitor, outcome.node);
                     });
    }
    system().simulator().schedule_after(sim::SimTime::millis(80),
                                        [this] { poll(); });
  }

  void pull_from(platform::AgentId monitor, net::NodeId at) {
    system().request(id(), platform::AgentAddress{at, monitor}, PullReadings{},
                     PullReadings::kWireBytes,
                     [this](platform::RpcResult result) {
                       if (!result.ok()) return;  // moved on; next poll
                       if (const auto* readings =
                               result.reply.body_as<Readings>()) {
                         ++reports_received;
                         for (const auto& [node, load] :
                              readings->load_by_node) {
                           dashboard[node] = load;
                         }
                       }
                     });
  }

  core::LocationScheme& scheme_;
  std::vector<platform::AgentId> monitors_;
  std::size_t cursor_ = 0;
};

}  // namespace

int main(int argc, char** argv) {
  util::Flags flags(argc, argv);
  const auto nodes = static_cast<std::size_t>(flags.get_int("nodes", 24));
  const auto monitors = static_cast<std::size_t>(flags.get_int("monitors", 4));
  const auto seed = static_cast<std::uint64_t>(flags.get_int("seed", 1));

  util::Rng rng(seed);
  sim::Simulator simulator;
  net::Network network(simulator, nodes, net::make_default_lan_model(),
                       rng.fork());
  platform::AgentSystem system(simulator, network);
  core::MechanismConfig mechanism;
  core::HashLocationScheme scheme(system, mechanism);

  auto& console = system.create<OperatorConsole>(0, scheme);
  std::vector<MonitorAgent*> fleet;
  const auto launch = [&](std::size_t count) {
    for (std::size_t i = 0; i < count; ++i) {
      auto& monitor = system.create<MonitorAgent>(
          static_cast<net::NodeId>((i + 1) % nodes), scheme, rng.next());
      fleet.push_back(&monitor);
      console.track(monitor.id());
    }
  };

  launch(monitors);
  simulator.run_until(sim::SimTime::seconds(10));
  const std::size_t trackers_small = scheme.tracker_count();

  // The operation scales up: the fleet triples, update traffic with it.
  launch(monitors * 2);
  simulator.run_until(sim::SimTime::seconds(40));

  std::printf("netmonitor after %.0fs (fleet of %zu monitors):\n",
              simulator.now().as_seconds(), fleet.size());
  std::size_t total_samples = 0;
  for (const MonitorAgent* monitor : fleet) {
    total_samples += monitor->nodes_sampled();
  }
  std::printf("  node coverage on the dashboard: %zu/%zu\n",
              console.dashboard.size(), nodes);
  std::printf("  reports pulled: %zu (locate failures: %zu)\n",
              console.reports_received, console.locate_failures);
  std::printf("  samples held by the fleet: %zu\n", total_samples);
  std::printf("  IAgents: %zu before scale-up, %zu after "
              "(%llu splits, %llu merges)\n",
              trackers_small, scheme.tracker_count(),
              static_cast<unsigned long long>(
                  scheme.hagent().stats().simple_splits +
                  scheme.hagent().stats().complex_splits),
              static_cast<unsigned long long>(
                  scheme.hagent().stats().simple_merges +
                  scheme.hagent().stats().complex_merges));
  return 0;
}
