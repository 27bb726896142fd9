#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "core/config.hpp"
#include "core/location_cache.hpp"
#include "core/protocol.hpp"
#include "core/update_batcher.hpp"
#include "hashtree/tree.hpp"
#include "platform/agent.hpp"

namespace agentloc::core {

struct LHAgentStats {
  std::uint64_t resolves = 0;
  std::uint64_t refreshes_requested = 0;
  std::uint64_t refreshes_completed = 0;
  std::uint64_t refreshes_coalesced = 0;
  std::uint64_t refresh_failures = 0;
  std::uint64_t delta_refreshes = 0;
  std::uint64_t update_nacks = 0;     ///< BatchedUpdateNacks received
};

/// Local Hash Agent (paper §2.2): the stationary per-node agent holding a
/// *secondary copy* of the hash function.
///
/// Agents co-located with an LHAgent resolve through a direct call —
/// same-node IPC is orders of magnitude cheaper than any network hop and
/// identical for every scheme, so it is not separately modelled (DESIGN.md
/// §2). The copy refreshes lazily (paper §4.3): when a client is told
/// "not responsible" (or cannot reach an IAgent at its recorded node), it
/// calls `refresh`, which pulls the primary copy from the HAgent. Concurrent
/// refresh requests coalesce into one pull.
///
/// The copy is an immutable snapshot, shared with other LHAgents until a
/// refresh (DESIGN.md §9): bootstrap hands every node the same one, and a
/// refresh swaps only this LHAgent's pointer to a snapshot of its own.
class LHAgent : public platform::Agent {
 public:
  using Snapshot = std::shared_ptr<const hashtree::HashTree>;

  /// `initial` is the bootstrap copy of the hash function (white-box setup
  /// shortcut; every later refresh goes through messages).
  LHAgent(platform::AgentAddress hagent, Snapshot initial);

  /// With coordinator failover (§7 fault-tolerance extension): after
  /// `failover_threshold` consecutive pull failures, rotate to the next
  /// coordinator and ask it to promote itself.
  LHAgent(std::vector<platform::AgentAddress> coordinators, Snapshot initial,
          int failover_threshold);

  void on_message(const platform::Message& message) override;
  void on_delivery_failure(const platform::DeliveryFailure& failure) override;

  /// Map an agent id to (believed) responsible IAgent and its (believed)
  /// node. Pure local computation on the secondary copy.
  platform::AgentAddress resolve(platform::AgentId agent);

  std::uint64_t version() const noexcept { return tree_->version(); }
  std::size_t known_iagents() const noexcept { return tree_->leaf_count(); }
  const LHAgentStats& stats() const noexcept { return stats_; }
  const hashtree::HashTree& tree() const noexcept { return *tree_; }

  /// Allocated bytes of this node's mechanism state: the secondary hash
  /// copy (serialized size as proxy), the update batcher, and the location
  /// cache. Feeds `HashLocationScheme::estimated_resident_bytes`. The copy
  /// counts in full even while it is shared: it stands for the copy a
  /// deployed node holds on its own (DESIGN.md §15).
  std::size_t resident_bytes() const noexcept {
    std::size_t bytes = tree_->serialized_bytes();
    if (batcher_ != nullptr) bytes += batcher_->resident_bytes();
    if (cache_ != nullptr) bytes += cache_->resident_bytes();
    return bytes;
  }

  /// Pull the primary copy from the HAgent, then run `done` (also on
  /// failure — the caller retries end-to-end). Coalesces concurrent calls.
  void refresh(std::function<void()> done);

  /// --- Update batching (opt-in; DESIGN.md §10) --------------------------
  /// Install a batcher so co-located movers report through `enqueue_update`
  /// instead of one wire message each. Call after creation (the scheme does
  /// this when `MechanismConfig::update_batching` is set).
  void enable_update_batching(sim::SimTime flush_interval,
                              std::size_t max_entries);

  /// Hand one location report to the batcher (falls back to an immediate
  /// single-entry batch when batching is not enabled).
  void enqueue_update(const LocationEntry& entry);

  UpdateBatcher* batcher() noexcept { return batcher_.get(); }

  /// --- Location caching (opt-in; DESIGN.md §12) -------------------------
  /// Install a per-node cache of (agent → node) bindings. Call after
  /// creation (the scheme does this when
  /// `MechanismConfig::location_cache.capacity` is nonzero).
  void enable_location_cache(const LocationCacheConfig& config);

  LocationCache* location_cache() noexcept { return cache_.get(); }
  const LocationCache* location_cache() const noexcept { return cache_.get(); }

  /// Deposit a binding the node learned for free — a co-located mover's
  /// report, a LocateReply, a WatchNotify. No-op without a cache.
  void cache_store(const LocationEntry& entry);

  /// Drop a cached binding (no-op without a cache).
  void cache_invalidate(platform::AgentId agent);

 private:
  void pull(bool force_full);
  void finish_pull();
  void note_pull_failure();

  std::vector<platform::AgentAddress> coordinators_;
  std::size_t coordinator_index_ = 0;
  platform::AgentAddress hagent_;  ///< current coordinator
  int failover_threshold_ = 2;
  int consecutive_failures_ = 0;
  Snapshot tree_;
  bool pull_in_flight_ = false;
  std::vector<std::function<void()>> waiters_;
  std::unique_ptr<UpdateBatcher> batcher_;
  std::unique_ptr<LocationCache> cache_;
  LHAgentStats stats_;
};

}  // namespace agentloc::core
