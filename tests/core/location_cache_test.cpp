// Unit and property tests for core::LocationCache: the fixed-capacity
// set-associative binding cache behind the optimistic locate path
// (DESIGN.md §12). The property test checks the one invariant the locate
// path relies on: a cache *hit* never contradicts what was stored — the
// cache may forget (eviction, expiry), it must never invent or roll back.

#include <gtest/gtest.h>

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "core/location_cache.hpp"
#include "util/rng.hpp"

namespace agentloc::core {
namespace {

using sim::SimTime;

constexpr SimTime kTtl = kLocationCacheTtl;  // 2 s

LocationEntry entry(platform::AgentId agent, net::NodeId node,
                    std::uint64_t seq) {
  return LocationEntry{agent, node, seq};
}

TEST(LocationCacheTest, StoreThenLookupHits) {
  LocationCache cache(16);
  cache.store(entry(42, 3, 1), SimTime::zero());
  const auto hit = cache.lookup(42, SimTime::millis(1));
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->node, 3u);
  EXPECT_EQ(hit->seq, 1u);
  EXPECT_EQ(cache.stats().hits, 1u);
  EXPECT_EQ(cache.size(), 1u);
}

TEST(LocationCacheTest, AbsentLookupMisses) {
  LocationCache cache(16);
  EXPECT_FALSE(cache.lookup(42, SimTime::zero()).has_value());
  EXPECT_EQ(cache.stats().misses, 1u);
}

TEST(LocationCacheTest, CapacityRoundsUpToPowerOfTwo) {
  EXPECT_EQ(LocationCache(1).capacity(), 8u);
  EXPECT_EQ(LocationCache(100).capacity(), 128u);
  EXPECT_EQ(LocationCache(256).capacity(), 256u);
}

TEST(LocationCacheTest, EntryExpiresAfterTtl) {
  LocationCache cache(16);
  cache.store(entry(42, 3, 1), SimTime::zero());
  EXPECT_TRUE(cache.lookup(42, kTtl - SimTime::millis(1)).has_value());
  EXPECT_FALSE(cache.lookup(42, kTtl).has_value());
  EXPECT_EQ(cache.stats().expirations, 1u);
  EXPECT_EQ(cache.size(), 0u);  // expiry freed the slot
}

TEST(LocationCacheTest, StoreRefreshesTtl) {
  LocationCache cache(16);
  cache.store(entry(42, 3, 1), SimTime::zero());
  cache.store(entry(42, 3, 2), SimTime::millis(1600));
  EXPECT_TRUE(cache.lookup(42, SimTime::millis(3000)).has_value());
}

TEST(LocationCacheTest, NewestSeqWins) {
  LocationCache cache(16);
  cache.store(entry(42, 3, 5), SimTime::zero());
  // A reordered older report must not roll the binding back.
  cache.store(entry(42, 7, 4), SimTime::zero());
  auto hit = cache.lookup(42, SimTime::millis(1));
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->node, 3u);
  EXPECT_EQ(cache.stats().stale_stores, 1u);
  // Equal seq refreshes, newer seq overwrites.
  cache.store(entry(42, 9, 5), SimTime::zero());
  cache.store(entry(42, 11, 6), SimTime::zero());
  hit = cache.lookup(42, SimTime::millis(1));
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->node, 11u);
  EXPECT_EQ(hit->seq, 6u);
}

TEST(LocationCacheTest, ExpiredBindingDoesNotVetoLowerSeq) {
  // Client seqs never restart, but an expired binding is void all the same:
  // lookups treat it as a miss, so once its TTL lapsed its (higher) seq must
  // not block a lower one.
  LocationCache cache(16);
  cache.store(entry(42, 3, 50), SimTime::zero());
  cache.store(entry(42, 6, 1), kTtl * 2);
  const auto hit = cache.lookup(42, kTtl * 2 + SimTime::millis(1));
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->node, 6u);
  EXPECT_EQ(hit->seq, 1u);
}

TEST(LocationCacheTest, InvalidateDropsBinding) {
  LocationCache cache(16);
  cache.store(entry(42, 3, 1), SimTime::zero());
  EXPECT_TRUE(cache.invalidate(42));
  EXPECT_FALSE(cache.invalidate(42));  // already gone
  EXPECT_FALSE(cache.lookup(42, SimTime::millis(1)).has_value());
  EXPECT_EQ(cache.stats().invalidations, 1u);
}

TEST(LocationCacheTest, NoteStaleCountsAndInvalidates) {
  LocationCache cache(16);
  cache.store(entry(42, 3, 1), SimTime::zero());
  cache.note_stale(42);
  EXPECT_EQ(cache.stats().stale_hits, 1u);
  EXPECT_FALSE(cache.lookup(42, SimTime::millis(1)).has_value());
}

TEST(LocationCacheTest, SizeNeverExceedsCapacityUnderPressure) {
  LocationCache cache(32);
  for (std::uint64_t id = 1; id <= 1000; ++id) {
    cache.store(entry(id, static_cast<net::NodeId>(id % 8), 1),
                SimTime::zero());
    ASSERT_LE(cache.size(), cache.capacity());
  }
  EXPECT_GE(cache.stats().evictions, 1000 - cache.capacity());
}

TEST(LocationCacheTest, ClockGivesRecentlyHitBindingsASecondChance) {
  // Deterministic second-chance trace on one 4-way set of a capacity-8
  // cache. Set selection mirrors the implementation: mix64(agent) & 1.
  LocationCache cache(8);
  std::vector<platform::AgentId> ids;
  for (std::uint64_t id = 1; ids.size() < 6; ++id) {
    if ((util::mix64(id) & 1) == 0) ids.push_back(id);
  }
  const auto a = ids[0], b = ids[1], c = ids[2], d = ids[3], e = ids[4],
             f = ids[5];
  const SimTime now = SimTime::zero();
  for (const auto id : {a, b, c, d}) {
    cache.store(entry(id, 1, 1), now);  // set full, every bit referenced
  }
  // E's insertion sweeps the whole set (clearing all bits) and recycles the
  // hand slot, which holds A.
  cache.store(entry(e, 1, 1), now);
  // A lookup re-arms B; the next insertion must pass over it and take the
  // first never-rereferenced slot instead (C).
  ASSERT_TRUE(cache.lookup(b, now).has_value());
  cache.store(entry(f, 1, 1), now);

  EXPECT_FALSE(cache.lookup(a, now).has_value());
  EXPECT_FALSE(cache.lookup(c, now).has_value());
  EXPECT_TRUE(cache.lookup(b, now).has_value());
  EXPECT_TRUE(cache.lookup(d, now).has_value());
  EXPECT_TRUE(cache.lookup(e, now).has_value());
  EXPECT_TRUE(cache.lookup(f, now).has_value());
  EXPECT_EQ(cache.stats().evictions, 2u);
}

// --- property test vs a deposit ledger --------------------------------------

TEST(LocationCachePropertyTest, HitsNeverInventBindingsOrOutliveTheTtl) {
  // 200 agents churning through 64 slots: constant eviction pressure. The
  // cache is free to forget any binding (eviction, expiry, invalidation) and
  // free to re-learn a reordered older one after it forgot — what it must
  // NEVER do is serve a (node, seq) pair nobody deposited, serve across an
  // invalidation without a re-deposit, or serve a deposit older than the
  // TTL. The ledger records every deposit since the last invalidation; a hit
  // must match one, fresh enough.
  util::Rng rng(0xcafef00d);
  LocationCache cache(64);
  struct Deposit {
    net::NodeId node = net::kNoNode;
    SimTime last_store = SimTime::zero();
  };
  // agent → seq → last deposit of that seq
  std::unordered_map<platform::AgentId, std::unordered_map<std::uint64_t, Deposit>>
      ledger;
  std::unordered_map<platform::AgentId, std::uint64_t> seqs;

  SimTime now = SimTime::zero();
  for (int iteration = 0; iteration < 50000; ++iteration) {
    const platform::AgentId agent = 1 + rng.next_below(200);
    const auto op = rng.next_below(100);
    if (op < 40) {
      // Mostly fresh seqs, some deliberately stale reorders.
      std::uint64_t seq = ++seqs[agent];
      if (rng.chance(0.2) && seq > 2) seq = rng.next_below(seq);
      const auto node = static_cast<net::NodeId>(rng.next_below(16));
      cache.store(entry(agent, node, seq), now);
      ledger[agent][seq] = Deposit{node, now};
    } else if (op < 75) {
      const auto hit = cache.lookup(agent, now);
      if (hit.has_value()) {
        const auto by_agent = ledger.find(agent);
        ASSERT_NE(by_agent, ledger.end());
        const auto deposit = by_agent->second.find(hit->seq);
        ASSERT_NE(deposit, by_agent->second.end())
            << "hit served a seq never deposited";
        ASSERT_EQ(hit->node, deposit->second.node);
        ASSERT_LT(now, deposit->second.last_store + kTtl)
            << "hit served a deposit past its TTL";
      }
    } else if (op < 85) {
      cache.invalidate(agent);
      ledger.erase(agent);
    } else {
      now = now + SimTime::millis(rng.next_below(320));
    }
    ASSERT_LE(cache.size(), cache.capacity());
  }
  // The workload must actually have exercised the interesting paths.
  const LocationCacheStats& stats = cache.stats();
  EXPECT_GT(stats.hits, 0u);
  EXPECT_GT(stats.misses, 0u);
  EXPECT_GT(stats.evictions, 0u);
  EXPECT_GT(stats.expirations, 0u);
  EXPECT_GT(stats.stale_stores, 0u);
  EXPECT_GT(stats.invalidations, 0u);
}

}  // namespace
}  // namespace agentloc::core
