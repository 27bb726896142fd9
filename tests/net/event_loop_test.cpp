#include "net/event_loop.hpp"

#include <gtest/gtest.h>

#include <unistd.h>

#include <vector>

namespace agentloc::net {
namespace {

/// The loop's contract: level-triggered readiness over an interest set.
/// Pipes are used instead of sockets so the suite runs even in sandboxes
/// without socket support.
class EventLoopTest : public ::testing::Test {
 protected:
  void SetUp() override {
    if (!loop_.valid()) GTEST_SKIP() << "kernel has no epoll";
    ASSERT_EQ(::pipe(fds_), 0);
  }

  void TearDown() override {
    if (fds_[0] >= 0) ::close(fds_[0]);
    if (fds_[1] >= 0) ::close(fds_[1]);
  }

  /// The events `wait` reported for `fd` (empty if it was not ready).
  std::vector<EventLoop::Event> wait_events(int timeout_ms) {
    std::vector<EventLoop::Event> out;
    loop_.wait(timeout_ms, out);
    return out;
  }

  EventLoop loop_;
  int fds_[2] = {-1, -1};  ///< pipe: [0] read end, [1] write end
};

TEST_F(EventLoopTest, TimeoutWithNothingReadyReturnsZero) {
  ASSERT_TRUE(loop_.add(fds_[0], /*want_read=*/true, /*want_write=*/false));
  EXPECT_EQ(loop_.watched(), 1u);
  std::vector<EventLoop::Event> events;
  EXPECT_EQ(loop_.wait(0, events), 0);
  EXPECT_TRUE(events.empty());
}

TEST_F(EventLoopTest, ReportsReadableWhenDataArrives) {
  ASSERT_TRUE(loop_.add(fds_[0], true, false));
  ASSERT_EQ(::write(fds_[1], "x", 1), 1);
  const auto events = wait_events(1000);
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].fd, fds_[0]);
  EXPECT_TRUE(events[0].readable);
  EXPECT_FALSE(events[0].writable);
}

TEST_F(EventLoopTest, LevelTriggeredReadinessReReports) {
  ASSERT_TRUE(loop_.add(fds_[0], true, false));
  ASSERT_EQ(::write(fds_[1], "xy", 2), 2);
  // Not draining the pipe must re-report readable on every wait — the
  // transport's read_ready relies on this to resume partial drains.
  for (int turn = 0; turn < 3; ++turn) {
    const auto events = wait_events(1000);
    ASSERT_EQ(events.size(), 1u) << "turn " << turn;
    EXPECT_TRUE(events[0].readable);
  }
  char buffer[4];
  ASSERT_EQ(::read(fds_[0], buffer, sizeof buffer), 2);
  std::vector<EventLoop::Event> events;
  EXPECT_EQ(loop_.wait(0, events), 0);  // drained: no longer ready
}

TEST_F(EventLoopTest, WriteInterestTogglesViaModify) {
  ASSERT_TRUE(loop_.add(fds_[1], false, true));
  auto events = wait_events(1000);
  ASSERT_EQ(events.size(), 1u);  // empty pipe: write end is writable
  EXPECT_TRUE(events[0].writable);

  ASSERT_TRUE(loop_.modify(fds_[1], false, false));
  EXPECT_EQ(loop_.wait(0, events), 0);

  ASSERT_TRUE(loop_.modify(fds_[1], false, true));
  events = wait_events(1000);
  ASSERT_EQ(events.size(), 1u);
  EXPECT_TRUE(events[0].writable);
}

TEST_F(EventLoopTest, RemoveStopsReporting) {
  ASSERT_TRUE(loop_.add(fds_[0], true, false));
  ASSERT_EQ(::write(fds_[1], "x", 1), 1);
  ASSERT_EQ(wait_events(1000).size(), 1u);
  loop_.remove(fds_[0]);
  EXPECT_EQ(loop_.watched(), 0u);
  std::vector<EventLoop::Event> events;
  EXPECT_EQ(loop_.wait(0, events), 0);
  loop_.remove(fds_[0]);  // double-remove is a no-op
}

TEST_F(EventLoopTest, ClosedWriterReportsHangupOrReadable) {
  ASSERT_TRUE(loop_.add(fds_[0], true, false));
  ::close(fds_[1]);
  fds_[1] = -1;
  const auto events = wait_events(1000);
  ASSERT_EQ(events.size(), 1u);
  // The kernel may flag EPOLLHUP, readability (EOF), or both; the
  // transport treats either as "read now and observe EOF".
  EXPECT_TRUE(events[0].hangup || events[0].readable);
}

TEST_F(EventLoopTest, WatchesManyFdsIndependently) {
  int second[2] = {-1, -1};
  ASSERT_EQ(::pipe(second), 0);
  ASSERT_TRUE(loop_.add(fds_[0], true, false));
  ASSERT_TRUE(loop_.add(second[0], true, false));
  EXPECT_EQ(loop_.watched(), 2u);
  ASSERT_EQ(::write(second[1], "x", 1), 1);
  const auto events = wait_events(1000);
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].fd, second[0]);
  ::close(second[0]);
  ::close(second[1]);
}

}  // namespace
}  // namespace agentloc::net
