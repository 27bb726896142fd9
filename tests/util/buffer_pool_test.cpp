#include "util/buffer_pool.hpp"

#include <gtest/gtest.h>

#include <utility>
#include <vector>

namespace agentloc::util {
namespace {

TEST(BufferPool, AcquireFreshReservesCapacity) {
  BufferPool pool;
  auto buffer = pool.acquire(1024);
  EXPECT_EQ(buffer.size(), 0u);
  EXPECT_GE(buffer.capacity(), 1024u);
  EXPECT_EQ(pool.stats().acquires, 1u);
  EXPECT_EQ(pool.stats().reuses, 0u);
}

TEST(BufferPool, ReleaseThenAcquireReusesWarmBuffer) {
  BufferPool pool;
  auto buffer = pool.acquire(512);
  buffer.assign(300, 0xab);
  const std::uint8_t* data = buffer.data();
  pool.release(std::move(buffer));
  EXPECT_EQ(pool.pooled_count(), 1u);

  auto again = pool.acquire(100);
  EXPECT_EQ(again.size(), 0u) << "pooled buffers come back cleared";
  EXPECT_EQ(again.data(), data) << "same heap allocation, no realloc";
  EXPECT_EQ(pool.stats().reuses, 1u);
  EXPECT_EQ(pool.pooled_count(), 0u);
}

TEST(BufferPool, LifoOrder) {
  BufferPool pool;
  auto a = pool.acquire(64);
  auto b = pool.acquire(64);
  const std::uint8_t* pa = a.data();
  const std::uint8_t* pb = b.data();
  ASSERT_NE(pa, pb);
  pool.release(std::move(a));
  pool.release(std::move(b));
  // Most recently released (b) comes back first: it is the cache-warm one.
  EXPECT_EQ(pool.acquire().data(), pb);
  EXPECT_EQ(pool.acquire().data(), pa);
}

TEST(BufferPool, AcquireGrowsUndersizedPooledBuffer) {
  BufferPool pool;
  auto small = pool.acquire(16);
  small.push_back(1);
  pool.release(std::move(small));
  auto big = pool.acquire(4096);
  EXPECT_GE(big.capacity(), 4096u);
  EXPECT_EQ(pool.stats().reuses, 1u);
}

TEST(BufferPool, MaxBuffersBoundDiscards) {
  BufferPool pool;
  for (int i = 0; i < 4; ++i) {
    auto buffer = pool.acquire(64);
    buffer.push_back(1);  // ensure nonzero capacity
    pool.release(std::move(buffer));
  }
  // Each release above found the pool momentarily empty again (each acquire
  // popped one), so count discards by forcing kMaxBuffers + 2 concurrent
  // buffers instead.
  std::vector<std::vector<std::uint8_t>> live;
  for (std::size_t i = 0; i < BufferPool::kMaxBuffers + 2; ++i) {
    live.push_back(pool.acquire(64));
    live.back().push_back(1);
  }
  const std::uint64_t discards_before = pool.stats().discards;
  for (auto& buffer : live) pool.release(std::move(buffer));
  EXPECT_EQ(pool.pooled_count(), BufferPool::kMaxBuffers);
  EXPECT_EQ(pool.stats().discards, discards_before + 2);
}

TEST(BufferPool, MaxRetainedBytesBoundDiscards) {
  // Two buffers of just over half the byte bound: the second would take
  // the pool past it.
  constexpr std::size_t kHalfPlus = BufferPool::kMaxRetainedBytes / 2 + 1;
  BufferPool pool;
  auto a = pool.acquire(kHalfPlus);
  auto b = pool.acquire(kHalfPlus);
  a.push_back(1);
  b.push_back(1);
  pool.release(std::move(a));
  EXPECT_EQ(pool.pooled_count(), 1u);
  const std::uint64_t discards_before = pool.stats().discards;
  pool.release(std::move(b));  // would exceed the byte bound
  EXPECT_EQ(pool.pooled_count(), 1u);
  EXPECT_EQ(pool.stats().discards, discards_before + 1);
}

TEST(BufferPool, ZeroCapacityReleaseIsDiscarded) {
  BufferPool pool;
  pool.release(std::vector<std::uint8_t>{});
  EXPECT_EQ(pool.pooled_count(), 0u);
  EXPECT_EQ(pool.stats().discards, 1u);
}

TEST(BufferPool, RetainedBytesTracksCapacities) {
  BufferPool pool;
  auto a = pool.acquire(100);
  a.push_back(1);
  const std::size_t cap = a.capacity();
  pool.release(std::move(a));
  EXPECT_EQ(pool.retained_bytes(), cap);
  (void)pool.acquire();
  EXPECT_EQ(pool.retained_bytes(), 0u);
}

}  // namespace
}  // namespace agentloc::util
