#include "util/summary.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

namespace agentloc::util {
namespace {

TEST(Summary, EmptyIsZero) {
  Summary s;
  EXPECT_TRUE(s.empty());
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.percentile(50), 0.0);
  EXPECT_EQ(s.max(), 0.0);
}

TEST(Summary, BasicStatistics) {
  Summary s;
  for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(v);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
}

TEST(Summary, PercentilesNearestRank) {
  Summary s;
  for (int i = 1; i <= 100; ++i) s.add(i);
  EXPECT_DOUBLE_EQ(s.percentile(0), 1.0);
  EXPECT_DOUBLE_EQ(s.percentile(50), 50.0);
  EXPECT_DOUBLE_EQ(s.percentile(95), 95.0);
  EXPECT_DOUBLE_EQ(s.percentile(100), 100.0);
  EXPECT_THROW(s.percentile(101), std::invalid_argument);
  EXPECT_THROW(s.percentile(-1), std::invalid_argument);
}

TEST(Summary, PercentileAfterLaterAdds) {
  Summary s;
  s.add(10);
  EXPECT_DOUBLE_EQ(s.percentile(50), 10.0);
  s.add(1);  // must invalidate the cached sort
  EXPECT_DOUBLE_EQ(s.percentile(0), 1.0);
}

TEST(Summary, MergeCombines) {
  Summary a, b;
  a.add(1.0);
  a.add(2.0);
  b.add(3.0);
  b.add(4.0);
  a.merge(b);
  EXPECT_EQ(a.count(), 4u);
  EXPECT_DOUBLE_EQ(a.mean(), 2.5);
  EXPECT_DOUBLE_EQ(a.max(), 4.0);
}

}  // namespace
}  // namespace agentloc::util
