#pragma once

#include <cstddef>

#include "sim/time.hpp"

namespace agentloc::core {

/// Opt-in per-node location caching (DESIGN.md §12). The default-off state
/// leaves the locate path, the committed bench baselines, and the
/// paper-faithful figures byte-identical to a build without the cache.
struct LocationCacheConfig {
  /// Cache capacity in bindings per node (rounded up to a power of two).
  /// Nonzero gives every LHAgent a `LocationCache` consulted on the locate
  /// path; 0 (the default) turns caching off.
  std::size_t capacity = 0;
};

/// Sim-time bound on a cached binding's age; expired entries count as misses.
inline constexpr sim::SimTime kLocationCacheTtl = sim::SimTime::seconds(2);

/// Length of an IAgent's request-rate measurement window (DESIGN.md §6).
inline constexpr sim::SimTime kStatsWindow = sim::SimTime::seconds(2);

/// After a responsibility change, compatible-but-unknown lookups answer
/// kTransient (handoff in flight) for this long.
inline constexpr sim::SimTime kTransientGrace = sim::SimTime::millis(300);

/// Client-side deadline for a watch to fire before reporting failure.
inline constexpr sim::SimTime kWatchTimeout = sim::SimTime::seconds(10);

/// Client-side delay before retrying a kTransient locate.
inline constexpr sim::SimTime kTransientRetryDelay = sim::SimTime::millis(5);

/// Client-side RPC deadline for location traffic. Deliberately generous: a
/// request to an overloaded tracker should *wait* in its queue (that
/// queueing delay is the phenomenon the paper measures), not time out and
/// retry — retries amplify exactly the overload they react to.
inline constexpr sim::SimTime kRpcTimeout = sim::SimTime::seconds(2);

/// Largest number of entries shipped in one HandoffTransfer message; bigger
/// tables move as a chain of batches (final_batch marks the last).
inline constexpr std::size_t kMaxHandoffBatch = 64;

/// Most watchers an IAgent keeps per tracked agent (guaranteed-discovery
/// extension); further WatchRequests are refused with kTransient.
inline constexpr std::size_t kMaxWatchersPerAgent = 8;

/// Tunables of the hash-based location mechanism. Defaults reproduce the
/// paper's setting (Tmax/Tmin reconstructed as 50/5 msg/s — DESIGN.md §5).
struct MechanismConfig {
  /// Split an IAgent whose request rate exceeds this (msg/s; paper §4.1).
  double t_max = 50.0;

  /// Merge an IAgent whose request rate falls below this (msg/s; §4.2).
  double t_min = 5.0;

  /// Minimum time between rehash requests from the same IAgent, and the
  /// minimum age before a fresh IAgent may ask to merge — hysteresis on top
  /// of the Tmax/Tmin band.
  sim::SimTime rehash_cooldown = sim::SimTime::seconds(4);

  /// Largest m tried by a simple split before settling for the best seen.
  std::size_t max_split_bits = 4;

  /// Run a backup HAgent that replicates the primary copy op-by-op and can
  /// be promoted when the primary dies (the paper's §7 fault-tolerance
  /// extension: "the HAgent that keeps this copy [is] a vulnerability
  /// point").
  bool hagent_replication = false;

  /// Opt-in update coalescing (DESIGN.md §10): movers hand their location
  /// reports to the co-located LHAgent, which flushes them to each
  /// responsible IAgent as one `BatchedUpdate` per flush window. Newest-seq
  /// wins inside a batch exactly as it does at the IAgent's table, so the
  /// mechanism's semantics are unchanged — only the message count drops.
  bool update_batching = false;

  /// Longest a pending update waits in the batcher before a flush. The
  /// ablation (bench_ablation_batching) shows staleness is essentially flat
  /// up to 200 ms at LAN dwell times, so the default leans toward savings.
  sim::SimTime batch_flush_interval = sim::SimTime::millis(100);

  /// Batch-first at scale: tracked-population size at or above which the
  /// experiment harness turns `update_batching` on and pre-sizes the scheme
  /// tables for the population (0 disables auto-scaling). Per-update wire
  /// messages dominate at million-agent populations; below the threshold
  /// nothing changes, so small fixed-seed baselines stay bit-identical.
  std::size_t batch_auto_threshold = 10000;

  /// Pre-split the primary copy to this many IAgents (rounded up to a power
  /// of two) at bootstrap, before any traffic. With one initial IAgent a
  /// million registrations funnel through one inbox until enough splits
  /// complete; pre-splitting starts the run at the capacity the population
  /// needs. 0 or 1 keeps the paper's single-IAgent bootstrap.
  std::size_t initial_iagents = 1;

  /// Per-node location caching with staleness-safe optimistic locates
  /// (DESIGN.md §12). Default off.
  LocationCacheConfig location_cache;

  /// Paper §7 extension: IAgents periodically migrate toward the node
  /// hosting the plurality of the agents they serve (once that node holds
  /// at least half of the IAgent's entries).
  bool locality_migration = false;
};

}  // namespace agentloc::core
