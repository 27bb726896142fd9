#pragma once

#include <deque>
#include <memory>
#include <vector>
#include <optional>

#include "core/config.hpp"
#include "core/tracker_table.hpp"
#include "platform/agent.hpp"
#include "sim/timer.hpp"
#include "util/flat_map.hpp"

namespace agentloc::core {

/// Counters exposed for tests and benches.
struct IAgentStats {
  std::uint64_t registers = 0;
  std::uint64_t updates = 0;          ///< update entries applied or refused
  std::uint64_t batched_updates = 0;  ///< BatchedUpdate messages received
  std::uint64_t locates = 0;
  std::uint64_t not_responsible_replies = 0;
  std::uint64_t transient_replies = 0;
  std::uint64_t unknown_replies = 0;
  std::uint64_t handoff_batches_out = 0;
  std::uint64_t handoff_entries_out = 0;
  std::uint64_t handoff_batches_in = 0;
  std::uint64_t handoff_entries_in = 0;
  std::uint64_t split_requests = 0;
  std::uint64_t merge_requests = 0;
  std::uint64_t locality_migrations = 0;
  std::uint64_t watches_armed = 0;
  std::uint64_t watches_fired = 0;
  std::uint64_t watches_refused = 0;
};

/// Information Agent (paper §2.2): a mobile agent that maintains the precise
/// current location of every mobile agent hashed to it.
///
/// Behaviour implemented here, mapped to the paper:
///  * serves Register/Update/Locate requests, verifying responsibility via
///    the predicate the HAgent last granted (§2.3 "checks whether it is
///    still responsible");
///  * keeps windowed request statistics, total and per served agent (§4),
///    and asks the HAgent to split when the rate exceeds Tmax or to merge
///    when it falls below Tmin (§4.1–4.2), with a cooldown providing
///    hysteresis;
///  * executes handoffs: pushes entries matching a transfer predicate to a
///    newly created IAgent, receives entries on its own creation or on a
///    sibling's retirement, and retires itself on a RetireOrder (§4.1–4.2);
///  * optionally migrates toward the plurality node of its served agents
///    (the paper's §7 locality extension).
class IAgent : public platform::Agent {
 public:
  IAgent(const MechanismConfig& config, platform::AgentAddress hagent);

  /// With coordinator failover (the §7 fault-tolerance extension): requests
  /// go to the first address; a bounced coordinator message rotates to the
  /// next and asks it to promote itself.
  IAgent(const MechanismConfig& config,
         std::vector<platform::AgentAddress> coordinators);

  /// Migration ships the location table: 2 KiB of code/state plus ~20 bytes
  /// per entry.
  std::size_t serialized_size() const override {
    return 2048 + 20 * table_.size();
  }

  void on_start() override;
  void on_arrival(net::NodeId from_node) override;
  void on_message(const platform::Message& message) override;
  void on_delivery_failure(const platform::DeliveryFailure& failure) override;

  const IAgentStats& stats() const noexcept { return stats_; }
  std::size_t entry_count() const noexcept { return table_.size(); }

  /// Pre-size the location table for an expected share of the tracked
  /// population (bulk registration would otherwise rehash repeatedly).
  void reserve(std::size_t agents) { table_.reserve(agents); }

  /// Allocated bytes of the tracking state this IAgent holds: location
  /// table, load window, watcher lists, and the locality scratch histogram.
  /// Feeds `LocationScheme::estimated_resident_bytes`.
  std::size_t resident_bytes() const noexcept {
    std::size_t watcher_bytes =
        watchers_.capacity() *
        (sizeof(platform::AgentId) +
         sizeof(std::vector<platform::AgentAddress>));
    watchers_.for_each(
        [&](platform::AgentId,
            const std::vector<platform::AgentAddress>& list) {
          watcher_bytes += list.capacity() * sizeof(platform::AgentAddress);
        });
    return table_.resident_bytes() + window_.resident_bytes() +
           watcher_bytes + per_node_counts_.capacity() * sizeof(std::size_t);
  }
  const Predicate& predicate() const noexcept { return predicate_; }
  std::uint64_t hash_version() const noexcept { return hash_version_; }

 private:
  void handle_register(const platform::Message& message,
                       const RegisterRequest& request);
  void handle_update(const platform::Message& message,
                     const UpdateRequest& request);
  void handle_batched_update(const platform::Message& message,
                             const BatchedUpdate& batch);
  void handle_locate(const platform::Message& message,
                     const LocateRequest& request);
  void handle_watch(const platform::Message& message,
                    const WatchRequest& request);
  void fire_watchers(const LocationEntry& entry);
  void handle_responsibility(const ResponsibilityUpdate& update);
  void handle_handoff(const platform::Message& message,
                      const HandoffTransfer& transfer);
  void handle_retire(const RetireOrder& order);

  /// True when this IAgent must answer for `agent` under the current hash
  /// function.
  bool responsible_for(platform::AgentId agent) const {
    return predicate_.matches(agent);
  }

  void roll_window();
  void maybe_request_rehash();
  void consider_locality_migration();

  /// Reliable transfer of a whole entry set: splits into batches of
  /// `kMaxHandoffBatch`, ships them as a chain (only the last is marked
  /// final), re-sending each until acked (entries are seq-checked on the
  /// receiving side, so duplicates are harmless). Calls `done` once.
  void push_entries(platform::AgentAddress target,
                    std::vector<LocationEntry> entries,
                    std::function<void()> done);

  /// One batch of the chain.
  void push_batch(platform::AgentAddress target,
                  std::vector<LocationEntry> batch, bool final_batch,
                  int attempts_left, std::function<void()> done);

  void finish_retirement();

  MechanismConfig config_;
  std::vector<platform::AgentAddress> coordinators_;
  std::size_t coordinator_index_ = 0;
  platform::AgentAddress hagent_;  ///< == coordinators_[coordinator_index_]

  LocationTable table_;
  LoadWindow window_;
  Predicate predicate_;  ///< initially empty: responsible for everything
  std::uint64_t hash_version_ = 0;

  std::unique_ptr<sim::PeriodicTimer> window_timer_;
  sim::SimTime cooldown_until_ = sim::SimTime::zero();
  sim::SimTime transient_until_ = sim::SimTime::zero();
  sim::SimTime created_at_ = sim::SimTime::zero();

  /// Guaranteed-discovery extension: one-shot subscribers per tracked agent
  /// (flat storage — same footprint argument as the scheme seq tables).
  util::FlatMap<platform::AgentId, std::vector<platform::AgentAddress>,
                platform::kNoAgent>
      watchers_;

  /// Scratch histogram for `consider_locality_migration` (node-indexed;
  /// kept as a member so the periodic roll never reallocates).
  std::vector<std::size_t> per_node_counts_;

  bool retiring_ = false;
  std::size_t retire_outstanding_ = 0;
  std::uint64_t retire_version_ = 0;

  IAgentStats stats_;
};

}  // namespace agentloc::core
