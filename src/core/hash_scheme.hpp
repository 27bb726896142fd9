#pragma once

#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "sim/timer.hpp"

#include "core/config.hpp"
#include "core/hagent.hpp"
#include "core/lhagent.hpp"
#include "core/scheme.hpp"
#include "util/flat_map.hpp"

namespace agentloc::core {

/// The paper's mechanism, deployed: one HAgent (primary copy of the hash
/// function), one LHAgent per node (secondary copies), and a dynamically
/// changing population of IAgents, starting at one.
///
/// Client behaviour (what a mobile agent does through this object) follows
/// §2.3 and §4.3 precisely:
///  * register/update: resolve the responsible IAgent via the local
///    LHAgent, send the request; on a "not responsible" answer or an
///    unreachable IAgent, refresh the local copy from the HAgent and resend;
///  * locate: resolve, query the IAgent; on kNotResponsible refresh + retry,
///    on kTransient retry after a short delay (a handoff is completing),
///    on kFound report the node.
/// Retries are bounded by `kMaxLocateRetries`.
class HashLocationScheme : public LocationScheme {
 public:
  HashLocationScheme(platform::AgentSystem& system, MechanismConfig config,
                     net::NodeId hagent_node = 0);

  std::string name() const override { return "hash"; }

  void register_agent(platform::Agent& self,
                      std::function<void(bool)> done) override;
  void update_location(platform::Agent& self,
                       std::function<void(bool)> done) override;
  bool handle_agent_message(platform::Agent& self,
                            const platform::Message& message) override;
  void handle_delivery_failure(
      platform::Agent& self,
      const platform::DeliveryFailure& failure) override;
  void deregister_agent(platform::Agent& self) override;
  void locate(platform::Agent& requester, platform::AgentId target,
              std::function<void(const LocateOutcome&)> done) override;

  /// Folds the per-node location-cache counters into the cache_* fields at
  /// read time (they accumulate inside each LHAgent's cache).
  const SchemeStats& stats() const noexcept override;

  /// Client seq table + every live IAgent's tables + both hash-copy tiers
  /// (HAgent primary + journal, per-node LHAgent copies, batchers, caches).
  std::size_t estimated_resident_bytes() const noexcept override;

  /// Pre-sizes the client seq table and the current IAgents' tables for an
  /// expected tracked population.
  void reserve(std::size_t agents) override;

  std::size_t tracker_count() const override {
    if (!system_.exists(hagent_id_) && backup_ != nullptr) {
      return backup_->iagent_count();
    }
    return hagent_->iagent_count();
  }

  /// Guaranteed-discovery extension (paper §6 future work): subscribe to
  /// `target`'s *next* location report. `done` fires exactly once — with the
  /// fresh entry the moment the target lands somewhere, or with
  /// `fired == false` after `MechanismConfig::watch_timeout`. Because the
  /// notification carries a location whose dwell time lies entirely ahead,
  /// a follow-up contact wins the race a plain locate can lose against an
  /// agent that moves faster than queries.
  struct WatchOutcome {
    bool fired = false;
    LocationEntry entry;
  };
  void watch(platform::Agent& requester, platform::AgentId target,
             std::function<void(const WatchOutcome&)> done);

  /// White-box accessors for tests and benches. `hagent()` returns the
  /// coordinator that currently holds (or, before a promotion, last held)
  /// the primary role; with replication enabled, `backup_hagent()` is the
  /// standby.
  HAgent& hagent() noexcept {
    if (!system_.exists(hagent_id_) && backup_ != nullptr) return *backup_;
    return *hagent_;
  }
  HAgent* backup_hagent() noexcept { return backup_; }
  LHAgent& lhagent(net::NodeId node) { return *lhagents_.at(node); }
  const MechanismConfig& config() const noexcept { return config_; }

 private:
  void send_register(platform::AgentId self, std::uint64_t seq,
                     int attempts_left, std::function<void(bool)> done);

  /// Fire one one-way location report from the agent's current node.
  void send_update(platform::AgentId self);

  /// Refresh the agent's local hash copy, then resend its location.
  void refresh_and_resend_update(platform::AgentId self);

  void locate_attempt(platform::AgentId requester, platform::AgentId target,
                      int attempt, std::function<void(const LocateOutcome&)> done);

  /// Optimistic jump (DESIGN.md §12): verify a cached binding with one probe
  /// to the cached node's LHAgent; fall back to the authoritative path (and
  /// invalidate the binding) on a stale miss.
  void probe_cached_node(platform::AgentId requester, platform::AgentId target,
                         net::NodeId cached_node, int attempt,
                         std::function<void(const LocateOutcome&)> done);

  /// The authoritative leg: one LocateRequest RPC to the responsible IAgent
  /// (or, with singleflight enabled, a seat on an already-in-flight one).
  void locate_via_iagent(platform::AgentId requester, platform::AgentId target,
                         int attempt,
                         std::function<void(const LocateOutcome&)> done);

  /// Shared continuation for every waiter of a locate RPC.
  void handle_locate_reply(platform::AgentId requester,
                           platform::AgentId target, int attempt,
                           std::function<void(const LocateOutcome&)> done,
                           const platform::RpcResult& result);

  void watch_attempt(platform::AgentId requester, platform::AgentId target,
                     int attempt,
                     std::function<void(const WatchOutcome&)> done);
  void arm_watch(platform::AgentId requester, platform::AgentId target,
                 std::function<void(const WatchOutcome&)> done);

  /// The LHAgent co-located with an agent, by its current node.
  LHAgent* local_lhagent(platform::AgentId agent);

  struct PendingWatch {
    std::uint64_t token = 0;
    platform::AgentId requester = platform::kNoAgent;
    platform::AgentId target = platform::kNoAgent;
    std::function<void(const WatchOutcome&)> done;
    std::unique_ptr<sim::Timeout> timeout;
  };

  /// Singleflight locate coalescing (opt-in; DESIGN.md §12): waiters of an
  /// in-flight (node, target) LocateRequest, keyed exactly — coalescing on a
  /// hash could merge distinct targets. `std::map` keeps the footprint
  /// proportional to the handful of RPCs in flight at once.
  using FlightKey = std::pair<net::NodeId, platform::AgentId>;
  using FlightWaiter = std::function<void(const platform::RpcResult&)>;

  platform::AgentSystem& system_;
  MechanismConfig config_;
  HAgent* hagent_ = nullptr;
  // The primary's id, cached so liveness checks never touch `*hagent_`,
  // which dangles once the primary is disposed (e.g. in failover tests).
  platform::AgentId hagent_id_ = platform::kNoAgent;
  HAgent* backup_ = nullptr;
  std::vector<LHAgent*> lhagents_;
  /// Per-agent update sequence numbers. Open-addressing flat storage: at
  /// million-agent populations this table holds one slot per tracked agent,
  /// so the node-and-bucket overhead of `std::unordered_map` (~56 bytes per
  /// entry) would rival the payload; a FlatMap slot is 16 bytes.
  util::FlatMap<platform::AgentId, std::uint64_t, platform::kNoAgent> seqs_;
  std::vector<std::unique_ptr<PendingWatch>> pending_watches_;
  std::uint64_t watch_tokens_ = 0;
  std::map<FlightKey, std::vector<FlightWaiter>> locate_flights_;
};

}  // namespace agentloc::core
