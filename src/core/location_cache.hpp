#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "core/config.hpp"
#include "core/protocol.hpp"
#include "sim/time.hpp"

namespace agentloc::core {

/// Counters exposed through `SchemeStats` (cache_* fields) and the cache
/// ablation bench.
struct LocationCacheStats {
  std::uint64_t hits = 0;            ///< lookups inside TTL
  std::uint64_t misses = 0;          ///< absent, expired, or evicted entries
  std::uint64_t stale_hits = 0;      ///< hits refuted by the verify probe
  std::uint64_t evictions = 0;       ///< live entries displaced by CLOCK
  std::uint64_t invalidations = 0;   ///< explicit removals (incl. stale)
  std::uint64_t expirations = 0;     ///< entries dropped on TTL expiry
  std::uint64_t stores = 0;          ///< accepted inserts/overwrites
  std::uint64_t stale_stores = 0;    ///< stores refused by newest-seq-wins
};

/// Per-node cache of (agent → node) location bindings (DESIGN.md §12).
///
/// Owned by each LHAgent when `MechanismConfig::location_cache.capacity` is
/// nonzero: every LocateReply, WatchNotify, and co-located mover report the
/// node sees anyway deposits a binding here, and the locate path consults
/// it to skip the authoritative IAgent round trip (the optimistic jump —
/// verified at the cached node, so a stale binding costs one extra hop,
/// never a wrong answer).
///
/// Layout: fixed-capacity open addressing, FlatMap-style (power-of-two slot
/// array, `mix64` home slots), organized as 4-way sets so displacement never
/// breaks probe chains: a key only ever lives in one of the four slots of its
/// set. Insertion into a full set runs CLOCK second-chance over the set — a
/// per-set hand sweeps, clearing reference bits until it finds a slot whose
/// bit is already clear — so repeatedly-hit bindings (the Zipf head the cache
/// exists for) survive while one-shot lookups recycle.
///
/// Bindings are ordered by the mover's sequence number: `store` refuses any
/// binding older than the one cached, so reordered replies cannot roll a
/// binding back. Unlike `LocationTable` the cache keeps no tombstones; it
/// need not, because every hit is verified at its node before it answers a
/// locate (DESIGN.md §12). Entries expire `kLocationCacheTtl` after their
/// last store; expiry counts as a miss and frees the slot.
class LocationCache {
 public:
  /// `capacity` is rounded up to a power of two ≥ 8 slots.
  explicit LocationCache(std::size_t capacity);

  struct Hit {
    net::NodeId node = net::kNoNode;
    std::uint64_t seq = 0;
  };

  /// Probe the cache at sim-time `now`. Counts one hit or one miss; an
  /// expired entry is dropped and counted as a miss (plus an expiration).
  std::optional<Hit> lookup(platform::AgentId agent, sim::SimTime now);

  /// Deposit a binding, newest-seq-wins. An equal-or-newer seq overwrites
  /// (refreshing the TTL); an older one is dropped unless the cached binding
  /// has expired, since an expired binding is void.
  void store(const LocationEntry& entry, sim::SimTime now);

  /// Drop the binding for `agent`, if cached. Returns whether one existed.
  bool invalidate(platform::AgentId agent);

  /// A verify probe refuted the cached binding: count the stale hit and drop
  /// the entry so the authoritative answer repopulates it.
  void note_stale(platform::AgentId agent);

  std::size_t size() const noexcept { return size_; }
  std::size_t capacity() const noexcept { return slots_.size(); }
  const LocationCacheStats& stats() const noexcept { return stats_; }

  /// Allocated bytes of the slot array and CLOCK hands.
  std::size_t resident_bytes() const noexcept {
    return slots_.capacity() * sizeof(Slot) +
           hands_.capacity() * sizeof(std::uint8_t);
  }

 private:
  struct Slot {
    platform::AgentId agent = platform::kNoAgent;
    std::uint64_t seq = 0;
    sim::SimTime expiry = sim::SimTime::zero();
    net::NodeId node = net::kNoNode;
    bool referenced = false;
  };

  static constexpr std::size_t kWays = 4;

  std::size_t set_base(platform::AgentId agent) const noexcept;
  Slot* find_slot(platform::AgentId agent) noexcept;
  void clear_slot(Slot& slot) noexcept;

  /// Pick the victim slot of `agent`'s set: an empty or expired slot if one
  /// exists, else CLOCK second-chance from the set's hand.
  Slot& victim_slot(std::size_t base, sim::SimTime now);

  std::vector<Slot> slots_;
  std::vector<std::uint8_t> hands_;  ///< per-set CLOCK hand, in [0, kWays)
  std::size_t size_ = 0;
  LocationCacheStats stats_;
};

}  // namespace agentloc::core
