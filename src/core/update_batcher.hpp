#pragma once

#include <cstdint>
#include <vector>

#include "core/protocol.hpp"
#include "sim/timer.hpp"
#include "util/flat_map.hpp"

namespace agentloc::platform {
class AgentSystem;
}

namespace agentloc::core {

class LHAgent;

/// Counters exposed for tests and the batching ablation bench.
struct UpdateBatcherStats {
  std::uint64_t enqueued = 0;
  /// Newest-seq-wins overwrites inside the pending pool: a mover reported
  /// again before the previous report flushed, so one wire entry (not just
  /// one wire message) was saved.
  std::uint64_t replaced = 0;
  std::uint64_t batches_sent = 0;
  std::uint64_t entries_sent = 0;
  std::uint64_t requeued = 0;  ///< entries re-enqueued after an IAgent nack
};

/// Per-node location-update coalescing (opt-in; DESIGN.md §10).
///
/// Lives inside the node's LHAgent. Movers hand their `LocationEntry` to the
/// batcher instead of paying for an `UpdateRequest` message each; the batcher
/// keeps at most one pending entry per agent (newest seq wins, mirroring the
/// IAgent table's rule) and flushes on a short timer or when
/// `max_entries` distinct agents are pending — whichever comes first.
/// Targets are resolved against the LHAgent's hash copy *at flush time*, so a
/// refresh between enqueue and flush redirects the whole batch for free.
class UpdateBatcher {
 public:
  UpdateBatcher(LHAgent& owner, platform::AgentSystem& system,
                sim::SimTime flush_interval, std::size_t max_entries);

  /// Add (or newest-wins-overwrite) one pending location report.
  void enqueue(const LocationEntry& entry);

  /// Re-enqueue entries an IAgent refused; called after the owning LHAgent
  /// refreshed its copy, so the next flush re-resolves them.
  void requeue(const std::vector<LocationEntry>& entries);

  /// Send every pending entry now, one `BatchedUpdate` per target IAgent.
  void flush();

  std::size_t pending() const noexcept { return pending_.size(); }
  const UpdateBatcherStats& stats() const noexcept { return stats_; }

  /// Allocated bytes of the pending pool and its id index.
  std::size_t resident_bytes() const noexcept {
    return pending_.capacity() * sizeof(LocationEntry) +
           index_.resident_bytes();
  }

 private:
  void arm_timer();

  LHAgent& owner_;
  platform::AgentSystem& system_;
  sim::SimTime flush_interval_;
  std::size_t max_entries_;

  /// Pending pool in deterministic insertion order plus an index by agent id
  /// for the newest-wins overwrite.
  std::vector<LocationEntry> pending_;
  util::FlatMap<platform::AgentId, std::uint32_t, platform::kNoAgent> index_;
  std::uint64_t replaced_since_flush_ = 0;

  sim::Timeout timer_;
  UpdateBatcherStats stats_;
};

}  // namespace agentloc::core
