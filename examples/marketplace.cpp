// Marketplace: the mobile-agent e-commerce scenario that motivated systems
// like Aglets (and the paper's introduction — agents "launched into the
// network to roam around and gather information").
//
// A buyer dispatches *shopping agents* that tour seller nodes collecting
// price quotes for an item. While they are out shopping, the buyer console
// uses the location mechanism to find each of its agents and pull an interim
// status report — exactly the "communicate with agents in real time as they
// move" capability the paper builds.
//
// Run: ./build/examples/marketplace [--shoppers=6 --sellers=10 --seed=1]

#include <algorithm>
#include <cstdio>
#include <vector>

#include "core/hash_scheme.hpp"
#include "platform/agent_system.hpp"
#include "util/flags.hpp"
#include "util/rng.hpp"

using namespace agentloc;

namespace {

/// Ask a shopping agent for its status.
struct StatusRequest {
  static constexpr std::size_t kWireBytes = 24;
};

struct StatusReport {
  std::size_t quotes_collected = 0;
  double best_price = 0.0;
  bool done = false;
  static constexpr std::size_t kWireBytes = 40;
};

/// A mobile agent touring seller nodes and collecting quotes.
class ShoppingAgent : public platform::Agent {
 public:
  ShoppingAgent(core::LocationScheme& scheme, std::vector<net::NodeId> tour,
                std::uint64_t seed)
      : scheme_(scheme), tour_(std::move(tour)), rng_(seed) {}

  /// Carries its collected quotes when migrating.
  std::size_t serialized_size() const override {
    return 2048 + 16 * quotes_.size();
  }

  void on_start() override {
    scheme_.register_agent(*this, [](bool) {});
    shop_here();
  }

  void on_arrival(net::NodeId) override {
    scheme_.update_location(*this, [](bool) {});
    shop_here();
  }

  void on_message(const platform::Message& message) override {
    if (scheme_.handle_agent_message(*this, message)) return;
    if (message.body_as<StatusRequest>() != nullptr) {
      StatusReport report;
      report.quotes_collected = quotes_.size();
      report.best_price = best_price();
      report.done = next_stop_ >= tour_.size();
      system().reply(message, id(), report, StatusReport::kWireBytes);
    }
  }

  void on_delivery_failure(const platform::DeliveryFailure& failure) override {
    scheme_.handle_delivery_failure(*this, failure);
  }

  double best_price() const {
    return quotes_.empty() ? 0.0
                           : *std::min_element(quotes_.begin(), quotes_.end());
  }
  std::size_t quote_count() const { return quotes_.size(); }
  bool tour_finished() const {
    return lap_ + 1 >= kLaps && next_stop_ >= tour_.size();
  }

 private:
  void shop_here() {
    // Haggling takes a while — that's why the buyer wants status mid-tour.
    quotes_.push_back(50.0 + rng_.uniform() * 50.0);
    if (next_stop_ >= tour_.size() && lap_ + 1 < kLaps) {
      // Prices move; tour the market again.
      ++lap_;
      next_stop_ = 0;
    }
    if (next_stop_ < tour_.size()) {
      const net::NodeId destination = tour_[next_stop_++];
      system().simulator().schedule_after(
          sim::SimTime::millis(60 + rng_.uniform() * 60),
          [this, destination] {
            if (system().node_of(id())) system().migrate(id(), destination);
          });
    }
  }

  static constexpr int kLaps = 4;

  core::LocationScheme& scheme_;
  std::vector<net::NodeId> tour_;
  std::size_t next_stop_ = 0;
  int lap_ = 0;
  util::Rng rng_;
  std::vector<double> quotes_;
};

/// The stationary buyer console: locates its shoppers and polls them. When
/// a shopper slips away between the locate answer and the contact (it is a
/// *mobile* agent, after all), the console falls back to the scheme's watch
/// extension: the IAgent pushes the shopper's next landing point, which is
/// fresh by construction, and the retry contact succeeds.
class BuyerConsole : public platform::Agent {
 public:
  BuyerConsole(core::HashLocationScheme& scheme,
               std::vector<platform::AgentId> shoppers)
      : scheme_(scheme), shoppers_(std::move(shoppers)) {}

  void on_start() override { poll_next(); }

  void on_message(const platform::Message& message) override {
    // Routes WatchNotify (and any other scheme traffic) to the scheme.
    scheme_.handle_agent_message(*this, message);
  }

  std::size_t polls_answered = 0;
  std::size_t polls_failed = 0;
  std::size_t watch_rescues = 0;
  double last_best_price = 0.0;

 private:
  void poll_next() {
    const platform::AgentId shopper = shoppers_[cursor_++ % shoppers_.size()];
    // Step 1: locate the shopper through the hash mechanism.
    scheme_.locate(*this, shopper, [this, shopper](
                                       const core::LocateOutcome& outcome) {
      if (!outcome.found) {
        ++polls_failed;
        schedule_next_poll();
        return;
      }
      // Step 2: talk to it at the reported node.
      system().request(
          id(), platform::AgentAddress{outcome.node, shopper},
          StatusRequest{}, StatusRequest::kWireBytes,
          [this, shopper](platform::RpcResult result) {
            if (result.ok()) {
              if (const auto* report =
                      result.reply.body_as<StatusReport>()) {
                ++polls_answered;
                if (report->best_price > 0) {
                  last_best_price = report->best_price;
                }
              }
              schedule_next_poll();
              return;
            }
            // It migrated between the answer and our call. Watch for its
            // next landing and contact it there.
            scheme_.watch(
                *this, shopper,
                [this, shopper](
                    const core::HashLocationScheme::WatchOutcome& outcome) {
                  if (!outcome.fired) {
                    ++polls_failed;
                    schedule_next_poll();
                    return;
                  }
                  system().request(
                      id(),
                      platform::AgentAddress{outcome.entry.node, shopper},
                      StatusRequest{}, StatusRequest::kWireBytes,
                      [this](platform::RpcResult retry) {
                        if (retry.ok()) {
                          ++polls_answered;
                          ++watch_rescues;
                        } else {
                          ++polls_failed;
                        }
                        schedule_next_poll();
                      });
                });
          });
    });
  }

  void schedule_next_poll() {
    system().simulator().schedule_after(sim::SimTime::millis(120),
                                        [this] { poll_next(); });
  }

  core::HashLocationScheme& scheme_;
  std::vector<platform::AgentId> shoppers_;
  std::size_t cursor_ = 0;
};

}  // namespace

int main(int argc, char** argv) {
  util::Flags flags(argc, argv);
  const auto shoppers_count =
      static_cast<std::size_t>(flags.get_int("shoppers", 6));
  const auto sellers = static_cast<std::size_t>(flags.get_int("sellers", 10));
  const auto seed = static_cast<std::uint64_t>(flags.get_int("seed", 1));

  util::Rng rng(seed);
  sim::Simulator simulator;
  net::Network network(simulator, sellers + 1, net::make_default_lan_model(),
                       rng.fork());
  platform::AgentSystem system(simulator, network);
  core::MechanismConfig mechanism;
  core::HashLocationScheme scheme(system, mechanism);

  // Dispatch the shopping fleet from the buyer's node (node 0); each agent
  // tours the seller nodes in its own random order.
  std::vector<platform::AgentId> fleet;
  std::vector<ShoppingAgent*> shoppers;
  for (std::size_t i = 0; i < shoppers_count; ++i) {
    std::vector<net::NodeId> tour;
    for (net::NodeId node = 1; node <= sellers; ++node) tour.push_back(node);
    rng.shuffle(tour);
    auto& shopper =
        system.create<ShoppingAgent>(0, scheme, tour, rng.next());
    fleet.push_back(shopper.id());
    shoppers.push_back(&shopper);
  }
  auto& buyer = system.create<BuyerConsole>(0, scheme, fleet);

  simulator.run_until(sim::SimTime::seconds(8));

  std::printf("marketplace results after %.0fs simulated:\n",
              simulator.now().as_seconds());
  std::size_t finished = 0;
  double best = 1e9;
  for (const ShoppingAgent* shopper : shoppers) {
    finished += shopper->tour_finished();
    if (shopper->quote_count() > 0) best = std::min(best, shopper->best_price());
  }
  std::printf("  shoppers: %zu dispatched, %zu finished their tour\n",
              shoppers.size(), finished);
  std::printf("  best quote seen by any shopper: %.2f\n", best);
  std::printf("  buyer polls: %zu answered (%zu rescued by watch), %zu "
              "missed\n",
              buyer.polls_answered, buyer.watch_rescues, buyer.polls_failed);
  std::printf("  location mechanism: %zu IAgent(s), %llu locates, "
              "%llu stale-copy retries\n",
              scheme.tracker_count(),
              static_cast<unsigned long long>(scheme.stats().locates),
              static_cast<unsigned long long>(scheme.stats().stale_retries));
  return 0;
}
