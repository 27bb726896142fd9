#include "util/rng.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <vector>

namespace agentloc::util {
namespace {

TEST(Mix64, IsDeterministicAndDispersive) {
  EXPECT_EQ(mix64(1), mix64(1));
  EXPECT_NE(mix64(1), mix64(2));
  // Consecutive inputs should differ in roughly half their bits.
  int differing = __builtin_popcountll(mix64(41) ^ mix64(42));
  EXPECT_GT(differing, 16);
  EXPECT_LT(differing, 48);
}

TEST(Mix64, UnmixInvertsMix) {
  Rng rng(11);
  std::vector<std::uint64_t> values = {
      0, 1, 2, 3, ~std::uint64_t{0}, ~std::uint64_t{0} - 1,
      std::uint64_t{1} << 63, (std::uint64_t{1} << 32) - 1,
      0x9e3779b97f4a7c15ull, mix64(0)};
  for (int i = 0; i < 10000; ++i) values.push_back(rng.next());
  for (const std::uint64_t x : values) {
    EXPECT_EQ(unmix64(mix64(x)), x) << x;
    EXPECT_EQ(mix64(unmix64(x)), x) << x;
  }
}

TEST(Rng, SameSeedSameStream) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) equal += a.next() == b.next();
  EXPECT_LT(equal, 3);
}

TEST(Rng, NextBelowInRangeAndCoversAll) {
  Rng rng(7);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    const auto v = rng.next_below(7);
    ASSERT_LT(v, 7u);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 7u);
}

TEST(Rng, UniformIsInHalfOpenUnitInterval) {
  Rng rng(11);
  double sum = 0;
  for (int i = 0; i < 10000; ++i) {
    const double v = rng.uniform();
    ASSERT_GE(v, 0.0);
    ASSERT_LT(v, 1.0);
    sum += v;
  }
  EXPECT_NEAR(sum / 10000, 0.5, 0.02);
}

TEST(Rng, UniformRange) {
  Rng rng(13);
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.uniform(5.0, 9.0);
    ASSERT_GE(v, 5.0);
    ASSERT_LT(v, 9.0);
  }
}

TEST(Rng, ExponentialHasRequestedMean) {
  Rng rng(17);
  double sum = 0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) {
    const double v = rng.exponential(4.0);
    ASSERT_GE(v, 0.0);
    sum += v;
  }
  EXPECT_NEAR(sum / n, 4.0, 0.1);
}

TEST(Rng, ChanceEdgeCases) {
  Rng rng(19);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.chance(0.0));
    EXPECT_TRUE(rng.chance(1.0));
  }
  int hits = 0;
  for (int i = 0; i < 10000; ++i) hits += rng.chance(0.25);
  EXPECT_NEAR(hits / 10000.0, 0.25, 0.03);
}

TEST(Rng, ForkProducesIndependentStream) {
  Rng parent(23);
  Rng child = parent.fork();
  // The child must not replay the parent's stream.
  Rng parent_copy(23);
  (void)parent_copy.next();  // consumed by fork
  int equal = 0;
  for (int i = 0; i < 50; ++i) equal += child.next() == parent_copy.next();
  EXPECT_LT(equal, 3);
}

TEST(Rng, ShufflePermutes) {
  Rng rng(29);
  std::vector<int> items{0, 1, 2, 3, 4, 5, 6, 7, 8, 9};
  auto original = items;
  rng.shuffle(items);
  EXPECT_NE(items, original);  // astronomically unlikely to be identity
  std::sort(items.begin(), items.end());
  EXPECT_EQ(items, original);
}

TEST(Rng, ZipfUniformWhenSkewZero) {
  Rng rng(31);
  std::vector<int> counts(10, 0);
  for (int i = 0; i < 20000; ++i) ++counts[rng.zipf(10, 0.0)];
  for (int c : counts) EXPECT_NEAR(c, 2000, 350);
}

TEST(Rng, ZipfSkewFavorsLowRanks) {
  Rng rng(37);
  std::vector<int> counts(100, 0);
  for (int i = 0; i < 20000; ++i) {
    const auto r = rng.zipf(100, 1.0);
    ASSERT_LT(r, 100u);
    ++counts[r];
  }
  EXPECT_GT(counts[0], counts[50] * 3);
}

TEST(Rng, ZipfDegenerateCases) {
  Rng rng(41);
  EXPECT_EQ(rng.zipf(0, 1.0), 0u);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(rng.zipf(1, 1.0), 0u);
}

TEST(Rng, ZipfHigherSkewConcentratesHeadHarder) {
  // Head mass (rank 0) must grow monotonically with the skew parameter —
  // this is what the cache ablation sweeps over.
  std::size_t previous_head = 0;
  for (const double skew : {0.0, 0.5, 0.9, 1.2}) {
    Rng rng(43);
    std::size_t head = 0;
    for (int i = 0; i < 30000; ++i) head += rng.zipf(50, skew) == 0;
    EXPECT_GT(head, previous_head) << "skew " << skew;
    previous_head = head;
  }
  // At skew 1.2 the head should dominate outright.
  EXPECT_GT(previous_head, 30000u / 5);
}

TEST(Rng, ZipfStaysInBoundsAcrossSkews) {
  Rng rng(47);
  for (const double skew : {0.0, 0.3, 0.7, 1.0, 1.5, 3.0}) {
    for (const std::size_t n : {1u, 2u, 7u, 100u}) {
      for (int i = 0; i < 2000; ++i) {
        ASSERT_LT(rng.zipf(n, skew), n) << "n=" << n << " skew=" << skew;
      }
    }
  }
}

}  // namespace
}  // namespace agentloc::util
