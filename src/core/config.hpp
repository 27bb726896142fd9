#pragma once

#include <cstddef>

#include "sim/time.hpp"

namespace agentloc::core {

/// Opt-in per-node location caching (DESIGN.md §12). Every knob only takes
/// effect when `enabled` is set; the default-off state leaves the locate
/// path, the committed bench baselines, and the paper-faithful figures
/// byte-identical to a build without the cache.
struct LocationCacheConfig {
  /// Master switch: give every LHAgent a `LocationCache` and consult it on
  /// the locate path.
  bool enabled = false;

  /// Cache capacity in bindings per node (rounded up to a power of two).
  std::size_t capacity = 1024;

  /// Sim-time bound on a binding's age; expired entries count as misses.
  sim::SimTime ttl = sim::SimTime::seconds(2);
};

/// Tunables of the hash-based location mechanism. Defaults reproduce the
/// paper's setting (Tmax/Tmin reconstructed as 50/5 msg/s — DESIGN.md §5).
struct MechanismConfig {
  /// Split an IAgent whose request rate exceeds this (msg/s; paper §4.1).
  double t_max = 50.0;

  /// Merge an IAgent whose request rate falls below this (msg/s; §4.2).
  double t_min = 5.0;

  /// Length of the request-rate measurement window.
  sim::SimTime stats_window = sim::SimTime::seconds(2);

  /// Minimum time between rehash requests from the same IAgent, and the
  /// minimum age before a fresh IAgent may ask to merge — hysteresis on top
  /// of the Tmax/Tmin band.
  sim::SimTime rehash_cooldown = sim::SimTime::seconds(4);

  /// Largest m tried by a simple split before settling for the best seen.
  std::size_t max_split_bits = 4;

  /// After a responsibility change, compatible-but-unknown lookups answer
  /// kTransient (handoff in flight) for this long.
  sim::SimTime transient_grace = sim::SimTime::millis(300);

  /// Client-side delay before retrying a kTransient locate.
  sim::SimTime transient_retry_delay = sim::SimTime::millis(5);

  /// Client-side RPC deadline for location traffic. Deliberately generous:
  /// a request to an overloaded tracker should *wait* in its queue (that
  /// queueing delay is the phenomenon the paper measures), not time out and
  /// retry — retries amplify exactly the overload they react to.
  sim::SimTime rpc_timeout = sim::SimTime::seconds(2);

  /// Run a backup HAgent that replicates the primary copy op-by-op and can
  /// be promoted when the primary dies (the paper's §7 fault-tolerance
  /// extension: "the HAgent that keeps this copy [is] a vulnerability
  /// point").
  bool hagent_replication = false;

  /// Serve hash-copy refreshes as operation deltas when the coordinator's
  /// journal still covers the requester's version (falls back to full
  /// snapshots otherwise). Extension over the paper's whole-copy refresh.
  bool delta_refresh = true;

  /// Largest number of entries shipped in one HandoffTransfer message;
  /// bigger tables move as a chain of batches (final_batch marks the last).
  std::size_t max_handoff_batch = 64;

  /// Most watchers an IAgent keeps per tracked agent (guaranteed-discovery
  /// extension); further WatchRequests are refused with kTransient.
  std::size_t max_watchers_per_agent = 8;

  /// Client-side deadline for a watch to fire before reporting failure.
  sim::SimTime watch_timeout = sim::SimTime::seconds(10);

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

  /// Collapse concurrent in-flight LocateRequests for the same target from
  /// the same node into one IAgent RPC whose reply fans out to every waiter
  /// (DESIGN.md §12). Default off: coalescing drops wire messages, which
  /// perturbs fixed-seed trajectories the committed baselines pin down.
  bool locate_singleflight = false;

  /// Paper §7 extension: IAgents periodically migrate toward the node
  /// hosting the plurality of the agents they serve (once that node holds
  /// at least half of the IAgent's entries).
  bool locality_migration = false;
};

}  // namespace agentloc::core
