#pragma once

#include <vector>

#include "core/config.hpp"
#include "core/home_scheme.hpp"
#include "core/scheme.hpp"
#include "util/flat_map.hpp"

namespace agentloc::core {

/// Tell the forwarder at an agent's previous node where it went.
struct SetForward {
  platform::AgentId agent = platform::kNoAgent;
  net::NodeId next = net::kNoNode;
  std::uint64_t seq = 0;
  static constexpr std::size_t kWireBytes = 28;
};

/// Announce (or retract) an agent's presence at the forwarder's node.
struct PresenceNotice {
  platform::AgentId agent = platform::kNoAgent;
  bool here = true;
  std::uint64_t seq = 0;
  static constexpr std::size_t kWireBytes = 28;
};

/// One hop of a forwarding chase.
struct ChaseRequest {
  platform::AgentId target = platform::kNoAgent;
  static constexpr std::size_t kWireBytes = 24;
};

struct ChaseReply {
  enum class Kind : std::uint8_t { kHere, kForward, kUnknown };
  Kind kind = Kind::kUnknown;
  net::NodeId next = net::kNoNode;
  static constexpr std::size_t kWireBytes = 24;
};

/// Per-node forwarding-pointer holder.
class ForwarderAgent : public platform::Agent {
 public:
  void on_message(const platform::Message& message) override;

  std::size_t pointer_count() const noexcept { return state_.size(); }
  std::size_t resident_bytes() const noexcept {
    return state_.capacity() * (sizeof(platform::AgentId) + sizeof(Slot));
  }
  void reserve(std::size_t agents) { state_.reserve(agents); }

 private:
  struct Slot {
    bool here = false;
    net::NodeId next = net::kNoNode;
    std::uint64_t seq = 0;
  };
  util::FlatMap<platform::AgentId, Slot, platform::kNoAgent> state_;
};

/// Voyager-style scheme (paper §6): a name service records where each agent
/// registered; as agents move they leave forwarding pointers behind, and a
/// locate chases the pointer chain hop by hop from the name service's last
/// known node. After a successful chase the requester lazily refreshes the
/// name service (Voyager's behaviour), so chains stay short for popular
/// agents but grow with mobility between queries — the contrast the
/// scheme-comparison ablation shows against the hash mechanism.
class ForwardingLocationScheme : public LocationScheme {
 public:
  explicit ForwardingLocationScheme(platform::AgentSystem& system,
                                    net::NodeId name_service_node = 0);

  std::string name() const override { return "forwarding"; }

  void register_agent(platform::Agent& self,
                      std::function<void(bool)> done) override;
  void update_location(platform::Agent& self,
                       std::function<void(bool)> done) override;
  void deregister_agent(platform::Agent& self) override;
  void locate(platform::Agent& requester, platform::AgentId target,
              std::function<void(const LocateOutcome&)> done) override;

  /// Name service plus one forwarder per node.
  std::size_t tracker_count() const override { return 1 + forwarders_.size(); }

  std::size_t estimated_resident_bytes() const noexcept override {
    std::size_t bytes =
        seqs_.capacity() *
            (sizeof(platform::AgentId) + sizeof(std::uint64_t)) +
        last_node_.capacity() *
            (sizeof(platform::AgentId) + sizeof(net::NodeId)) +
        forwarders_.capacity() * sizeof(ForwarderAgent*) +
        name_service_->resident_bytes();
    for (const ForwarderAgent* forwarder : forwarders_) {
      bytes += forwarder->resident_bytes();
    }
    return bytes;
  }

  void reserve(std::size_t agents) override {
    seqs_.reserve(agents + 1);
    last_node_.reserve(agents + 1);
    name_service_->reserve(agents);
    // Pointers concentrate where agents linger; a uniform share is the best
    // static guess and growth past it is just a normal rehash.
    const std::size_t share = agents / forwarders_.size() + 1;
    for (ForwarderAgent* forwarder : forwarders_) forwarder->reserve(share);
  }

  /// Hop counts of completed chases (for the ablation's chain-length story).
  std::uint64_t chase_hops() const noexcept { return chase_hops_; }

  /// Maximum pointer-chain hops a locate will follow.
  static constexpr int kMaxHops = 64;

 private:
  void chase(platform::AgentId requester, platform::AgentId target,
             net::NodeId at, int hops, int attempt,
             std::function<void(const LocateOutcome&)> done);
  platform::AgentAddress forwarder_at(net::NodeId node) const {
    return platform::AgentAddress{node, forwarders_[node]->id()};
  }

  platform::AgentSystem& system_;
  CentralTracker* name_service_ = nullptr;
  platform::AgentAddress name_service_address_;
  std::vector<ForwarderAgent*> forwarders_;
  /// Per-agent update sequence numbers and last-reported nodes (flat
  /// storage; see HashLocationScheme).
  util::FlatMap<platform::AgentId, std::uint64_t, platform::kNoAgent> seqs_;
  util::FlatMap<platform::AgentId, net::NodeId, platform::kNoAgent>
      last_node_;
  std::uint64_t chase_hops_ = 0;
};

}  // namespace agentloc::core
