#include "util/flat_map.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <unordered_map>
#include <vector>

#include "util/rng.hpp"

namespace agentloc::util {
namespace {

using Map = FlatMap<std::uint64_t, int, 0>;

TEST(FlatMap, EmptyBehaviour) {
  Map map;
  EXPECT_TRUE(map.empty());
  EXPECT_EQ(map.size(), 0u);
  EXPECT_EQ(map.find(7), nullptr);
  EXPECT_FALSE(map.contains(7));
  EXPECT_FALSE(map.erase(7));
  EXPECT_THROW(map.at(7), std::out_of_range);
}

TEST(FlatMap, ResidentBytesCountPaddedSlots) {
  // An {8-byte key, 4-byte value} slot is padded to 16 bytes, and the
  // footprint counts whole slots: 100 keys at under 3/4 load take 256.
  FlatMap<std::uint64_t, std::uint32_t, 0> map;
  EXPECT_EQ(map.resident_bytes(), 0u);
  map.reserve(100);
  EXPECT_EQ(map.resident_bytes(), 256u * 16);
  Map wide;
  wide.emplace(1, 1);
  EXPECT_EQ(wide.resident_bytes(), 8u * 16);  // the minimum capacity
}

TEST(FlatMap, EmplaceFindErase) {
  Map map;
  EXPECT_TRUE(map.emplace(5, 50));
  EXPECT_FALSE(map.emplace(5, 99));  // second emplace loses
  EXPECT_EQ(map.at(5), 50);
  ASSERT_NE(map.find(5), nullptr);
  EXPECT_EQ(*map.find(5), 50);
  EXPECT_EQ(map.size(), 1u);

  EXPECT_TRUE(map.erase(5));
  EXPECT_FALSE(map.contains(5));
  EXPECT_EQ(map.size(), 0u);
}

TEST(FlatMap, SubscriptInsertsAndOverwrites) {
  Map map;
  map[3] = 30;
  EXPECT_EQ(map.at(3), 30);
  map[3] = 31;
  EXPECT_EQ(map.at(3), 31);
  EXPECT_EQ(map.size(), 1u);
  EXPECT_EQ(map[8], 0);  // default-constructed on first touch
  EXPECT_EQ(map.size(), 2u);
}

TEST(FlatMap, ClearKeepsCapacityDropsEntries) {
  Map map;
  for (std::uint64_t k = 1; k <= 100; ++k) map.emplace(k, static_cast<int>(k));
  map.clear();
  EXPECT_TRUE(map.empty());
  for (std::uint64_t k = 1; k <= 100; ++k) EXPECT_FALSE(map.contains(k));
  map.emplace(42, 1);
  EXPECT_EQ(map.size(), 1u);
}

TEST(FlatMap, ReserveThenBulkInsert) {
  Map map;
  map.reserve(1000);
  for (std::uint64_t k = 1; k <= 1000; ++k) {
    EXPECT_TRUE(map.emplace(k, static_cast<int>(k * 2)));
  }
  EXPECT_EQ(map.size(), 1000u);
  for (std::uint64_t k = 1; k <= 1000; ++k) {
    EXPECT_EQ(map.at(k), static_cast<int>(k * 2));
  }
}

/// Backward-shift deletion is the subtle part of linear probing; fuzz it
/// against std::unordered_map with adversarially colliding small keys.
TEST(FlatMap, RandomOpsAgreeWithUnorderedMap) {
  Rng rng(1234);
  Map map;
  std::unordered_map<std::uint64_t, int> reference;
  for (int step = 0; step < 20000; ++step) {
    const std::uint64_t key = 1 + rng.next_below(64);  // heavy collisions
    const auto roll = rng.next_below(10);
    if (roll < 4) {
      const int value = static_cast<int>(rng.next_below(1000));
      EXPECT_EQ(map.emplace(key, value),
                reference.emplace(key, value).second);
    } else if (roll < 6) {
      const int value = static_cast<int>(rng.next_below(1000));
      map[key] = value;
      reference[key] = value;
    } else if (roll < 9) {
      EXPECT_EQ(map.erase(key), reference.erase(key) > 0);
    } else {
      map.clear();
      reference.clear();
    }
    ASSERT_EQ(map.size(), reference.size());
    const std::uint64_t probe = 1 + rng.next_below(64);
    const auto it = reference.find(probe);
    const int* found = map.find(probe);
    ASSERT_EQ(found != nullptr, it != reference.end());
    if (found != nullptr) {
      ASSERT_EQ(*found, it->second);
    }
  }
}

TEST(FlatMap, ForEachVisitsEveryEntryOnce) {
  Map map;
  for (std::uint64_t k = 1; k <= 50; ++k) map.emplace(k, static_cast<int>(k));
  std::unordered_map<std::uint64_t, int> seen;
  map.for_each([&](std::uint64_t key, int value) {
    EXPECT_TRUE(seen.emplace(key, value).second) << "visited twice: " << key;
  });
  EXPECT_EQ(seen.size(), 50u);
  for (std::uint64_t k = 1; k <= 50; ++k) {
    EXPECT_EQ(seen.at(k), static_cast<int>(k));
  }
}

TEST(FlatMap, ForEachMutableCanRewriteValues) {
  Map map;
  for (std::uint64_t k = 1; k <= 10; ++k) map.emplace(k, 1);
  map.for_each([](std::uint64_t, int& value) { value *= 3; });
  for (std::uint64_t k = 1; k <= 10; ++k) EXPECT_EQ(map.at(k), 3);
}

TEST(FlatMap, ExtractIfMovesMatchesAndKeepsSurvivorsReachable) {
  Map map;
  for (std::uint64_t k = 1; k <= 99; ++k) map.emplace(k, static_cast<int>(k));
  std::unordered_map<std::uint64_t, int> out;
  const std::size_t removed = map.extract_if(
      [](std::uint64_t key, int) { return key % 3 == 0; },
      [&](std::uint64_t key, int&& value) {
        EXPECT_TRUE(out.emplace(key, value).second);
      });
  EXPECT_EQ(removed, 33u);
  EXPECT_EQ(out.size(), 33u);
  EXPECT_EQ(map.size(), 66u);
  for (std::uint64_t k = 1; k <= 99; ++k) {
    if (k % 3 == 0) {
      EXPECT_FALSE(map.contains(k));
      EXPECT_EQ(out.at(k), static_cast<int>(k));
    } else {
      EXPECT_EQ(map.at(k), static_cast<int>(k));
    }
  }
}

/// The recompaction after a bulk extraction must leave every survivor
/// reachable from its home slot; fuzz against std::unordered_map with
/// adversarially colliding small keys, as for backward-shift deletion.
TEST(FlatMap, ExtractIfFuzzAgainstUnorderedMap) {
  Rng rng(77);
  Map map;
  std::unordered_map<std::uint64_t, int> reference;
  for (int round = 0; round < 400; ++round) {
    for (int i = 0; i < 24; ++i) {
      const std::uint64_t key = 1 + rng.next_below(96);
      const int value = static_cast<int>(rng.next_below(1000));
      map[key] = value;
      reference[key] = value;
    }
    const std::uint64_t modulus = 2 + rng.next_below(5);
    std::unordered_map<std::uint64_t, int> extracted;
    map.extract_if(
        [&](std::uint64_t key, int) { return key % modulus == 0; },
        [&](std::uint64_t key, int&& value) {
          ASSERT_TRUE(extracted.emplace(key, value).second)
              << "extracted twice: " << key;
        });
    for (auto it = reference.begin(); it != reference.end();) {
      if (it->first % modulus == 0) {
        ASSERT_EQ(extracted.at(it->first), it->second);
        it = reference.erase(it);
      } else {
        ++it;
      }
    }
    ASSERT_EQ(map.size(), reference.size());
    for (const auto& [key, value] : reference) {
      const int* found = map.find(key);
      ASSERT_NE(found, nullptr) << "survivor lost: " << key;
      ASSERT_EQ(*found, value);
    }
  }
}

TEST(FlatMap, MillionKeyGrowthReservedAndIncrementalAgree) {
  // Capacity-path coverage for the million-agent tables (DESIGN.md §15):
  // one map pre-sized for the population, one growing through every rehash
  // doubling. Same keys, same answers, and the reserved map must never
  // rehash after its reserve.
  constexpr std::uint64_t kKeys = 1'000'000;
  Map reserved;
  reserved.reserve(kKeys);
  const std::size_t reserved_bytes = reserved.resident_bytes();
  ASSERT_GT(reserved_bytes, kKeys * 16);  // more 16-byte slots than keys

  Map incremental;
  util::Rng rng(2026);
  std::vector<std::uint64_t> keys;
  keys.reserve(kKeys);
  while (keys.size() < kKeys) {
    const std::uint64_t key = rng.next();
    if (key == 0) continue;  // the empty-slot marker
    keys.push_back(key);
    // Duplicate draws are vanishingly rare and harmless: emplace refuses
    // them identically in both maps.
    reserved.emplace(key, static_cast<int>(key & 0x7fffffff));
    incremental.emplace(key, static_cast<int>(key & 0x7fffffff));
  }
  EXPECT_EQ(reserved.resident_bytes(), reserved_bytes);  // reserve held
  EXPECT_EQ(reserved.size(), incremental.size());

  // Every key survived the incremental map's rehashes with its value.
  for (const std::uint64_t key : keys) {
    const int* grown = incremental.find(key);
    ASSERT_NE(grown, nullptr) << "lost across rehash: " << key;
    const int* flat = reserved.find(key);
    ASSERT_NE(flat, nullptr);
    ASSERT_EQ(*grown, *flat);
  }

  // Erase a deterministic quarter from both; survivors and absences agree.
  std::size_t erased = 0;
  for (std::size_t i = 0; i < keys.size(); i += 4) {
    ASSERT_EQ(reserved.erase(keys[i]), incremental.erase(keys[i]));
    ++erased;
  }
  EXPECT_EQ(reserved.size(), incremental.size());
  for (std::size_t i = 0; i < keys.size(); i += 1013) {
    const bool in_reserved = reserved.contains(keys[i]);
    EXPECT_EQ(in_reserved, incremental.contains(keys[i]));
    EXPECT_EQ(in_reserved, i % 4 != 0);
  }
  (void)erased;
}

TEST(FlatMap, CollectThenEraseMatchesForEachContract) {
  // The documented erase-while-iterating pattern: collect keys during
  // for_each, erase afterwards (the callback itself must not mutate).
  Map map;
  for (std::uint64_t k = 1; k <= 40; ++k) map.emplace(k, static_cast<int>(k));
  std::vector<std::uint64_t> evens;
  map.for_each([&](std::uint64_t key, int) {
    if (key % 2 == 0) evens.push_back(key);
  });
  for (const auto key : evens) {
    EXPECT_TRUE(map.erase(key));
  }
  EXPECT_EQ(map.size(), 20u);
  map.for_each([](std::uint64_t key, int) { EXPECT_EQ(key % 2, 1u); });
}

}  // namespace
}  // namespace agentloc::util
