#pragma once

#include <vector>

#include "core/centralized_scheme.hpp"
#include "core/config.hpp"
#include "core/scheme.hpp"
#include "util/flat_map.hpp"

namespace agentloc::core {

/// Ajanta-style home-registry scheme (paper §6): one registry per node; an
/// agent's *home* registry — derivable from its name, here `id mod #nodes` —
/// always knows its precise current location. Every move updates the home
/// registry; every locate asks the target's home registry.
///
/// Strengths: no central bottleneck (load spreads by agent id), one hop per
/// locate. Weakness the paper calls out: the scheme is welded to a naming
/// convention that encodes the home, and a popular agent's home registry
/// still hot-spots — there is no load-adaptive rebalancing.
///
/// The per-node registry reuses `CentralTracker` (the registry performs the
/// same functions, scoped to the agents homed at its node).
class HomeRegistryLocationScheme : public LocationScheme {
 public:
  HomeRegistryLocationScheme(platform::AgentSystem& system,
                             MechanismConfig config);

  std::string name() const override { return "home"; }

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
    if (registries_.empty()) return;
    // Homes spread by `id mod #nodes` — size each registry for its share.
    const std::size_t share = agents / registries_.size() + 1;
    for (CentralTracker* registry : registries_) registry->reserve(share);
  }

  /// The registry responsible for `agent` (by the naming convention).
  platform::AgentAddress home_of(platform::AgentId agent) const;

 private:
  void send_register(platform::AgentId self, std::uint64_t seq,
                     int attempts_left, std::function<void(bool)> done);
  void locate_attempt(platform::AgentId requester, platform::AgentId target,
                      int attempt,
                      std::function<void(const LocateOutcome&)> done);

  platform::AgentSystem& system_;
  MechanismConfig config_;
  std::vector<CentralTracker*> registries_;
  /// Per-agent update sequence numbers (flat storage; see HashLocationScheme).
  util::FlatMap<platform::AgentId, std::uint64_t, platform::kNoAgent> seqs_;
};

}  // namespace agentloc::core
