#include "util/parallel_for.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

namespace agentloc::util {
namespace {

TEST(ParallelFor, DefaultThreadsIsPositive) {
  EXPECT_GE(default_threads(), 1u);
}

TEST(ParallelFor, CoversEveryIndexExactlyOnce) {
  std::vector<std::atomic<int>> hits(257);
  parallel_for(hits.size(), 4,
               [&hits](std::size_t i) { ++hits[i]; });
  for (std::size_t i = 0; i < hits.size(); ++i) {
    EXPECT_EQ(hits[i].load(), 1) << i;
  }
}

TEST(ParallelFor, SequentialWhenSingleThreaded) {
  // threads <= 1 must run inline, in index order, on the calling thread.
  std::vector<std::size_t> order;
  const auto caller = std::this_thread::get_id();
  parallel_for(8, 1, [&](std::size_t i) {
    EXPECT_EQ(std::this_thread::get_id(), caller);
    order.push_back(i);
  });
  std::vector<std::size_t> expected(8);
  std::iota(expected.begin(), expected.end(), std::size_t{0});
  EXPECT_EQ(order, expected);
}

TEST(ParallelFor, ZeroCountIsANoop) {
  parallel_for(0, 4, [](std::size_t) { FAIL(); });
}

TEST(ParallelFor, MoreThreadsThanItems) {
  std::vector<std::atomic<int>> hits(3);
  parallel_for(hits.size(), 16, [&hits](std::size_t i) { ++hits[i]; });
  for (auto& hit : hits) EXPECT_EQ(hit.load(), 1);
}

TEST(ParallelFor, PropagatesTheFirstException) {
  std::atomic<int> completed{0};
  try {
    parallel_for(16, 4, [&completed](std::size_t i) {
      if (i == 5) throw std::runtime_error("boom");
      ++completed;
    });
    FAIL() << "expected an exception";
  } catch (const std::runtime_error& error) {
    EXPECT_STREQ(error.what(), "boom");
  }
  // Every other index still ran: one failure doesn't strand the others.
  EXPECT_EQ(completed.load(), 15);
}

TEST(ParallelFor, InlinePathPropagatesExceptions) {
  EXPECT_THROW(
      parallel_for(4, 1,
                   [](std::size_t i) {
                     if (i == 2) throw std::logic_error("inline");
                   }),
      std::logic_error);
}

}  // namespace
}  // namespace agentloc::util
