#pragma once

#include <vector>

#include "core/config.hpp"
#include "core/scheme.hpp"
#include "core/tracker_table.hpp"
#include "platform/agent.hpp"
#include "util/flat_map.hpp"

namespace agentloc::core {

/// A registry: one tracking agent keeping the precise current location of
/// every agent assigned to it. It performs the same functions as an IAgent,
/// but never splits. The home and centralized schemes run these as their
/// registries, and the forwarding scheme runs one as its name service.
class CentralTracker : public platform::Agent {
 public:
  void on_message(const platform::Message& message) override;

  std::size_t entry_count() const noexcept { return table_.size(); }
  std::uint64_t requests_served() const noexcept { return requests_; }
  std::size_t resident_bytes() const noexcept {
    return table_.resident_bytes();
  }
  void reserve(std::size_t agents) { table_.reserve(agents); }

 private:
  LocationTable table_;
  std::uint64_t requests_ = 0;
};

/// Ajanta-style home-registry scheme (paper §6): an agent's *home*
/// registry — derivable from its name, here `id mod #registries` — always
/// knows its precise current location. Every move updates the home
/// registry; every locate asks the target's home registry.
///
/// With one registry per node this is the home scheme. Strengths: no central
/// bottleneck (load spreads by agent id), one hop per locate. Weakness the
/// paper calls out: the scheme is welded to a naming convention that encodes
/// the home, and a popular agent's home registry still hot-spots — there is
/// no load-adaptive rebalancing.
///
/// With a single registry on node 0 it is the paper's centralized baseline
/// (§5): "a single central agent responsible for maintaining the current
/// location of all mobile agents in the system". Every update and query
/// then funnels through one inbox, which is what the paper's Figures 7–8
/// measure against.
class HomeRegistryLocationScheme : public LocationScheme {
 public:
  /// Places registries on nodes 0 .. `registries` - 1; `registries` must be
  /// between 1 and the node count.
  HomeRegistryLocationScheme(platform::AgentSystem& system,
                             std::size_t registries);

  std::string name() const override {
    return registries_.size() == 1 ? "centralized" : "home";
  }

  void register_agent(platform::Agent& self,
                      std::function<void(bool)> done) override;
  void update_location(platform::Agent& self,
                       std::function<void(bool)> done) override;
  void deregister_agent(platform::Agent& self) override;
  void locate(platform::Agent& requester, platform::AgentId target,
              std::function<void(const LocateOutcome&)> done) override;

  std::size_t tracker_count() const override { return registries_.size(); }

  std::size_t estimated_resident_bytes() const noexcept override {
    std::size_t bytes = seqs_.capacity() *
                        (sizeof(platform::AgentId) + sizeof(std::uint64_t));
    for (const CentralTracker* registry : registries_) {
      bytes += registry->resident_bytes();
    }
    return bytes;
  }

  void reserve(std::size_t agents) override {
    seqs_.reserve(agents);
    // Homes spread by `id mod #registries` — size each registry for its
    // share, rounded up.
    const std::size_t count = registries_.size();
    for (CentralTracker* registry : registries_) {
      registry->reserve((agents + count - 1) / count);
    }
  }

  /// The registry responsible for `agent` (by the naming convention).
  platform::AgentAddress home_of(platform::AgentId agent) const;

  CentralTracker& registry(std::size_t index) noexcept {
    return *registries_[index];
  }

 private:
  void send_register(platform::AgentId self, std::uint64_t seq,
                     int attempts_left, std::function<void(bool)> done);
  void locate_attempt(platform::AgentId requester, platform::AgentId target,
                      int attempt,
                      std::function<void(const LocateOutcome&)> done);

  platform::AgentSystem& system_;
  std::vector<CentralTracker*> registries_;
  /// Per-agent update sequence numbers (flat storage, never erased; see
  /// HashLocationScheme).
  util::FlatMap<platform::AgentId, std::uint64_t, platform::kNoAgent> seqs_;
};

}  // namespace agentloc::core
