#include "core/tracker_table.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <map>
#include <new>
#include <vector>

#include "hashtree/paper_figures.hpp"
#include "util/rng.hpp"

// This binary replaces the global allocation functions with counting
// versions, so a test can assert that a warm load window allocates nothing.
// GCC 12 reads the replaced pair, once inlined into one function, as
// `free` on memory from `operator new`; here the two match.
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"

namespace {
std::atomic<std::uint64_t> g_allocations{0};
}  // namespace

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* ptr = std::malloc(size)) return ptr;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) { return ::operator new(size); }

void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size);
}

void* operator new[](std::size_t size, const std::nothrow_t& tag) noexcept {
  return ::operator new(size, tag);
}

void operator delete(void* ptr) noexcept { std::free(ptr); }
void operator delete[](void* ptr) noexcept { std::free(ptr); }
void operator delete(void* ptr, std::size_t) noexcept { std::free(ptr); }
void operator delete[](void* ptr, std::size_t) noexcept { std::free(ptr); }
void operator delete(void* ptr, const std::nothrow_t&) noexcept {
  std::free(ptr);
}
void operator delete[](void* ptr, const std::nothrow_t&) noexcept {
  std::free(ptr);
}

namespace agentloc::core {
namespace {

TEST(LocationTable, ApplyAndFind) {
  LocationTable table;
  EXPECT_TRUE(table.apply(LocationEntry{1, 5, 1}));
  const auto entry = table.find(1);
  ASSERT_TRUE(entry.has_value());
  EXPECT_EQ(entry->node, 5u);
  EXPECT_EQ(entry->seq, 1u);
  EXPECT_FALSE(table.find(2).has_value());
  EXPECT_EQ(table.size(), 1u);
  EXPECT_TRUE(table.contains(1));
}

TEST(LocationTable, MillionEntryGrowthReservedAndIncrementalAgree) {
  // Million-agent capacity path (DESIGN.md §15): a reserved table and one
  // growing through every rehash must answer identically, and the byte
  // accounting must track the allocation.
  constexpr std::uint64_t kEntries = 1'000'000;
  LocationTable reserved;
  reserved.reserve(kEntries);
  const std::size_t reserved_bytes = reserved.resident_bytes();
  EXPECT_GT(reserved_bytes, kEntries * sizeof(LocationEntry) / 2);

  LocationTable incremental;
  util::Rng rng(7);
  for (std::uint64_t i = 1; i <= kEntries; ++i) {
    const auto node = static_cast<net::NodeId>(rng.next_below(1024));
    const LocationEntry entry{i, node, /*seq=*/1};
    ASSERT_TRUE(reserved.apply(entry));
    ASSERT_TRUE(incremental.apply(entry));
  }
  EXPECT_EQ(reserved.size(), kEntries);
  EXPECT_EQ(incremental.size(), kEntries);
  EXPECT_EQ(reserved.resident_bytes(), reserved_bytes);  // reserve held
  EXPECT_GE(incremental.resident_bytes(), reserved_bytes);

  // Spot-check across the id range: both tables, same node, stale updates
  // still refused after every rehash.
  for (std::uint64_t i = 1; i <= kEntries; i += 99991) {
    const auto in_reserved = reserved.find(i);
    const auto in_incremental = incremental.find(i);
    ASSERT_TRUE(in_reserved.has_value());
    ASSERT_TRUE(in_incremental.has_value());
    EXPECT_EQ(in_reserved->node, in_incremental->node);
    EXPECT_FALSE(incremental.apply(LocationEntry{i, 0, 1}));  // duplicate seq
  }
}

TEST(LocationTable, StaleSequenceRejected) {
  LocationTable table;
  table.apply(LocationEntry{1, 5, 3});
  EXPECT_FALSE(table.apply(LocationEntry{1, 9, 2}));
  EXPECT_FALSE(table.apply(LocationEntry{1, 9, 3}));  // equal seq = duplicate
  EXPECT_EQ(table.find(1)->node, 5u);
  EXPECT_TRUE(table.apply(LocationEntry{1, 9, 4}));
  EXPECT_EQ(table.find(1)->node, 9u);
}

TEST(LocationTable, RemoveHonorsSequence) {
  LocationTable table;
  table.apply(LocationEntry{1, 5, 3});
  EXPECT_FALSE(table.remove(1, 2));  // stale deregister
  EXPECT_TRUE(table.contains(1));
  EXPECT_TRUE(table.remove(1, 3));
  EXPECT_FALSE(table.contains(1));
  EXPECT_FALSE(table.remove(1, 4));  // already gone
}

TEST(LocationTable, TombstoneRefusesLateAndOvertakenUpdates) {
  LocationTable table;
  table.apply(LocationEntry{1, 5, 1});
  EXPECT_TRUE(table.remove(1, 3));
  EXPECT_FALSE(table.apply(LocationEntry{1, 6, 2}));  // late update
  EXPECT_FALSE(table.find(1).has_value());
  EXPECT_EQ(table.size(), 0u);

  // A deregister that overtook the agent's first report refuses it too.
  EXPECT_FALSE(table.remove(2, 3));
  EXPECT_FALSE(table.apply(LocationEntry{2, 6, 2}));
  EXPECT_FALSE(table.contains(2));

  // A re-registration continues above the tombstone.
  EXPECT_TRUE(table.apply(LocationEntry{1, 7, 4}));
  EXPECT_EQ(table.find(1)->node, 7u);
  EXPECT_EQ(table.size(), 1u);
}

TEST(LocationTable, TombstoneWinsSeqTie) {
  LocationTable table;
  table.apply(LocationEntry{1, 5, 4});
  EXPECT_TRUE(table.remove(1, 4));
  EXPECT_FALSE(table.apply(LocationEntry{1, 6, 4}));
  // A tombstone carried in by a handoff wins the tie as well.
  table.apply(LocationEntry{2, 5, 4});
  EXPECT_TRUE(table.apply(LocationEntry{2, net::kNoNode, 4}));
  EXPECT_FALSE(table.contains(2));
  EXPECT_EQ(table.size(), 0u);
}

TEST(LocationTable, HandoffScansCarryTombstones) {
  Predicate all;
  all.compile();
  LocationTable table;
  table.apply(LocationEntry{1, 5, 1});
  table.remove(2, 3);
  std::vector<LocationEntry> moved = table.extract_matching(all);
  ASSERT_EQ(moved.size(), 2u);

  LocationTable receiver;
  for (const LocationEntry& entry : moved) receiver.apply(entry);
  EXPECT_EQ(receiver.size(), 1u);
  EXPECT_FALSE(receiver.apply(LocationEntry{2, 6, 2}));  // still refused

  const auto batches = receiver.drain_partition({all});
  ASSERT_EQ(batches.size(), 1u);
  EXPECT_EQ(batches[0].size(), 2u);
  EXPECT_EQ(receiver.size(), 0u);
}

TEST(LocationTable, ExtractMatchingPartitions) {
  LocationTable table;
  // Predicate: bit 0 == 1 (ids with the top bit set).
  Predicate top_bit;
  top_bit.valid_bits.emplace_back(0, true);
  top_bit.compile();
  table.apply(LocationEntry{0x8000000000000001ull, 1, 1});
  table.apply(LocationEntry{0x0000000000000001ull, 2, 1});
  table.apply(LocationEntry{0xffffffffffffffffull, 3, 1});
  const auto moved = table.extract_matching(top_bit);
  EXPECT_EQ(moved.size(), 2u);
  EXPECT_EQ(table.size(), 1u);
  EXPECT_TRUE(table.contains(0x0000000000000001ull));
}

TEST(LocationTable, ExtractMatchingEquivalentToPerEntryScan) {
  // The single-pass bulk extraction must move exactly the entries a
  // per-entry `matches` scan would, whatever the table's probe layout.
  util::Rng rng(31);
  for (int round = 0; round < 20; ++round) {
    LocationTable table;
    std::vector<LocationEntry> all;
    const std::size_t population = 1 + rng.next_below(200);
    for (std::size_t i = 0; i < population; ++i) {
      const LocationEntry entry{rng.next() | 1, // never kNoAgent
                                static_cast<net::NodeId>(rng.next_below(8)),
                                1};
      if (table.apply(entry)) all.push_back(entry);
    }
    Predicate predicate;
    predicate.valid_bits.emplace_back(rng.next_below(4), rng.chance(0.5));
    predicate.valid_bits.emplace_back(4 + rng.next_below(4), rng.chance(0.5));
    predicate.compile();

    std::size_t expected_moved = 0;
    for (const LocationEntry& entry : all) {
      expected_moved += predicate.matches(entry.agent);
    }
    const auto moved = table.extract_matching(predicate);
    EXPECT_EQ(moved.size(), expected_moved);
    EXPECT_EQ(table.size(), all.size() - expected_moved);
    for (const LocationEntry& entry : moved) {
      EXPECT_TRUE(predicate.matches(entry.agent));
      EXPECT_FALSE(table.contains(entry.agent));
    }
    for (const LocationEntry& entry : all) {
      if (!predicate.matches(entry.agent)) {
        EXPECT_EQ(table.find(entry.agent)->node, entry.node);
      }
    }
  }
}

TEST(LocationTable, DrainPartitionSplitsByFirstMatchingRoute) {
  LocationTable table;
  Predicate top_set;  // bit 0 == 1
  top_set.valid_bits.emplace_back(0, true);
  top_set.compile();
  Predicate all;  // matches everything (a root leaf's predicate)
  all.compile();

  table.apply(LocationEntry{0x8000000000000001ull, 1, 1});
  table.apply(LocationEntry{0x0000000000000001ull, 2, 1});
  table.apply(LocationEntry{0xffffffffffffffffull, 3, 1});

  const auto batches = table.drain_partition({top_set, all});
  ASSERT_EQ(batches.size(), 2u);
  EXPECT_EQ(batches[0].size(), 2u);  // first match wins: top-bit entries
  EXPECT_EQ(batches[1].size(), 1u);
  EXPECT_EQ(batches[1][0].agent, 0x0000000000000001ull);
  EXPECT_EQ(table.size(), 0u);
}

TEST(Predicate, EmptyMatchesEverything) {
  Predicate predicate;
  EXPECT_TRUE(predicate.matches(0));
  EXPECT_TRUE(predicate.matches(0xdeadbeefull));
}

TEST(Predicate, ChecksBitsAtPositions) {
  Predicate predicate;
  predicate.valid_bits.emplace_back(0, true);
  predicate.valid_bits.emplace_back(63, false);
  predicate.compile();
  EXPECT_TRUE(predicate.matches(0x8000000000000000ull));
  EXPECT_FALSE(predicate.matches(0x8000000000000001ull));  // bit 63 = 1
  EXPECT_FALSE(predicate.matches(0x0000000000000000ull));  // bit 0 = 0
}

TEST(Predicate, PositionsBeyond64ReadAsZero) {
  Predicate predicate;
  predicate.valid_bits.emplace_back(70, false);
  predicate.compile();
  EXPECT_TRUE(predicate.matches(0xffffffffffffffffull));
  predicate.valid_bits.back().second = true;
  predicate.compile();
  EXPECT_FALSE(predicate.matches(0xffffffffffffffffull));
}

TEST(Predicate, CompiledMatchesScanOnRandomPredicates) {
  // The compiled (mask, value) fast path must agree with the wire-form scan
  // on every predicate shape: in-range and out-of-range positions,
  // duplicates (agreeing and conflicting), and empty.
  util::Rng rng(2024);
  for (int round = 0; round < 200; ++round) {
    Predicate predicate;
    const std::size_t bits = rng.next_below(8);
    for (std::size_t i = 0; i < bits; ++i) {
      const auto position = static_cast<std::uint32_t>(rng.next_below(80));
      predicate.valid_bits.emplace_back(position, rng.chance(0.5));
    }
    predicate.compile();
    for (int probe = 0; probe < 64; ++probe) {
      const platform::AgentId id = rng.next();
      ASSERT_EQ(predicate.matches(id), predicate.matches_scan(id))
          << "round " << round << " id " << id;
    }
    // Also probe ids built to satisfy the in-range bits, where the scan
    // path is most likely to say yes.
    platform::AgentId crafted = rng.next();
    for (const auto& [position, bit] : predicate.valid_bits) {
      if (position >= 64) continue;
      const std::uint64_t bit_mask = 1ull << (63 - position);
      crafted = bit ? (crafted | bit_mask) : (crafted & ~bit_mask);
    }
    ASSERT_EQ(predicate.matches(crafted), predicate.matches_scan(crafted));
  }
}

TEST(Predicate, ConflictingDuplicatePositionsMatchNothing) {
  Predicate predicate;
  predicate.valid_bits.emplace_back(3, true);
  predicate.valid_bits.emplace_back(3, false);
  predicate.compile();
  EXPECT_TRUE(predicate.impossible);
  EXPECT_FALSE(predicate.matches(0));
  EXPECT_FALSE(predicate.matches(~0ull));
  // The scan agrees: no id carries both values at one position.
  EXPECT_FALSE(predicate.matches_scan(0));
  EXPECT_FALSE(predicate.matches_scan(~0ull));
}

TEST(PredicateOf, MatchesTreeLookupOnFigure1) {
  const hashtree::HashTree tree = hashtree::figure1_tree();
  // For every leaf, predicate_of must agree with tree.lookup over a sweep of
  // ids: id maps to leaf  <=>  predicate matches.
  for (const auto leaf : tree.leaves()) {
    const Predicate predicate = predicate_of(tree, leaf);
    for (std::uint64_t v = 0; v < 128; ++v) {
      const std::uint64_t id = v << 57;  // put the 7 sweep bits on top
      EXPECT_EQ(tree.lookup_id(id).iagent == leaf, predicate.matches(id))
          << "leaf " << leaf << " id " << v;
    }
  }
}

TEST(PredicateOf, RootLeafIsUnconstrained) {
  const hashtree::HashTree tree(9, 0);
  EXPECT_TRUE(predicate_of(tree, 9).valid_bits.empty());
}

TEST(LoadWindow, RatesComputedOverClosedWindow) {
  LoadWindow window;  // kStatsWindow: 2 s
  window.record(1);
  window.record(1);
  window.record(2);
  EXPECT_EQ(window.rate(), 0.0);  // nothing closed yet
  window.roll();
  EXPECT_DOUBLE_EQ(window.rate(), 1.5);  // 3 requests / 2 s
  EXPECT_EQ(window.total(), 3u);
  const auto loads = window.loads();
  EXPECT_EQ(loads.size(), 2u);
  window.roll();
  EXPECT_DOUBLE_EQ(window.rate(), 0.0);  // empty window closed
  EXPECT_EQ(window.rolls(), 2u);
}

TEST(LoadWindow, PerAgentCounts) {
  LoadWindow window;
  for (int i = 0; i < 5; ++i) window.record(7);
  window.record(8);
  window.roll();
  std::uint32_t seven = 0, eight = 0;
  for (const auto& load : window.loads()) {
    if (load.agent == 7) seven = load.requests;
    if (load.agent == 8) eight = load.requests;
  }
  EXPECT_EQ(seven, 5u);
  EXPECT_EQ(eight, 1u);
}

TEST(LoadWindow, LoadsMatchAReferenceCountOverRandomStreams) {
  // Seeded request streams over few ids (so ids repeat), some windows empty;
  // after every roll, `loads()` lists each id of the closed window once
  // with its count, whatever the open window has counted since.
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    SCOPED_TRACE(::testing::Message() << "seed " << seed);
    util::Rng rng(seed);
    LoadWindow window;
    std::map<platform::AgentId, std::uint32_t> open;
    std::map<platform::AgentId, std::uint32_t> closed;
    std::uint64_t closed_requests = 0;
    for (std::uint64_t rolls = 1; rolls <= 12; ++rolls) {
      const std::uint64_t requests =
          rng.chance(0.25) ? 0 : rng.next_below(600);
      const std::uint64_t ids = 1 + rng.next_below(64);
      for (std::uint64_t i = 0; i < requests; ++i) {
        const platform::AgentId agent = util::mix64(1 + rng.next_below(ids));
        window.record(agent);
        ++open[agent];
        if (i == requests / 2) {
          // Mid-window, the loads are still the last closed window's.
          std::map<platform::AgentId, std::uint32_t> listed;
          for (const AgentLoad& load : window.loads()) {
            listed[load.agent] = load.requests;
          }
          EXPECT_EQ(listed, closed);
          EXPECT_EQ(window.total(), closed_requests);
        }
      }
      window.roll();
      closed = std::move(open);
      open.clear();
      closed_requests = requests;

      std::map<platform::AgentId, std::uint32_t> listed;
      for (const AgentLoad& load : window.loads()) {
        EXPECT_TRUE(listed.emplace(load.agent, load.requests).second)
            << "agent " << load.agent << " listed twice";
      }
      EXPECT_EQ(listed, closed);
      EXPECT_EQ(window.total(), requests);
      EXPECT_DOUBLE_EQ(window.rate(), static_cast<double>(requests) / 2.0);
      EXPECT_EQ(window.rolls(), rolls);
    }
  }
}

TEST(LoadWindow, RecordAndRollAllocateNothingOnceTheLogsHaveGrown) {
  // Two windows of a load grow both logs; a roll keeps the storage of each,
  // so later windows of no more requests never touch the heap.
  constexpr platform::AgentId kLoad = 1000;
  LoadWindow window;
  for (int w = 0; w < 2; ++w) {
    for (platform::AgentId agent = 1; agent <= kLoad; ++agent) {
      window.record(agent % 97 + 1);
    }
    window.roll();
  }
  const std::uint64_t before = g_allocations.load();
  for (int w = 0; w < 3; ++w) {
    for (platform::AgentId agent = 1; agent <= kLoad - 100 * w; ++agent) {
      window.record(agent % 97 + 1);
    }
    window.roll();
  }
  EXPECT_EQ(g_allocations.load() - before, 0u);
  EXPECT_EQ(window.total(), kLoad - 200);
}

TEST(LoadWindow, ResidentBytesAreItsTwoLogsCapacities) {
  // Two logs driven like the window's own open and closed ones: its byte
  // estimate must be their capacities, 8 bytes per id.
  LoadWindow window;
  std::vector<platform::AgentId> open;
  std::vector<platform::AgentId> closed;
  for (platform::AgentId agent = 1; agent <= 100; ++agent) {
    window.record(agent);
    open.push_back(agent);
  }
  window.roll();
  open.swap(closed);
  open.clear();
  for (platform::AgentId agent = 1; agent <= 30; ++agent) {
    window.record(agent);
    open.push_back(agent);
  }
  EXPECT_GT(open.capacity(), 0u);
  EXPECT_EQ(window.resident_bytes(),
            (open.capacity() + closed.capacity()) * sizeof(platform::AgentId));
}

}  // namespace
}  // namespace agentloc::core
