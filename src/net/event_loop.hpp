#pragma once

#include <sys/epoll.h>

#include <cstddef>
#include <vector>

namespace agentloc::net {

/// Readiness notification under `SocketTransport` (DESIGN.md §17): one
/// level-triggered epoll(7) instance.
///
/// The transport's turn loop only ever asks one question — "which of my fds
/// are readable / writable right now?" — so the loop is exactly that: an
/// interest set (`add`/`modify`/`remove`) plus one blocking `wait` that
/// fills a caller-owned event vector. Readiness is *level*-triggered (no
/// EPOLLET): an fd stays ready until the condition is drained, so
/// `read_ready` may leave bytes buffered in the kernel and is simply called
/// again on the next turn. Interest changes are O(1) `epoll_ctl` calls.
class EventLoop {
 public:
  /// One ready fd. `hangup` folds EPOLLHUP/EPOLLERR: the consumer treats it
  /// like readability so the next read observes EOF/ECONNRESET and
  /// disconnects cleanly.
  struct Event {
    int fd = -1;
    bool readable = false;
    bool writable = false;
    bool hangup = false;
  };

  EventLoop();
  ~EventLoop();
  EventLoop(const EventLoop&) = delete;
  EventLoop& operator=(const EventLoop&) = delete;

  /// False when the kernel refused the epoll instance; every `add` then
  /// fails, so callers see dead fds rather than a loop that never wakes.
  bool valid() const noexcept { return epoll_fd_ >= 0; }

  /// Start watching `fd`. False if epoll refuses it (a regular file, a bad
  /// fd, or an invalid loop); callers treat that as a dead fd.
  bool add(int fd, bool want_read, bool want_write);

  /// Change the interest set of a watched fd.
  bool modify(int fd, bool want_read, bool want_write);

  /// Stop watching `fd`. Safe to call for fds that were never added.
  void remove(int fd);

  /// Block up to `timeout_ms` (-1 = forever) and append ready fds to
  /// `out` (cleared first). Returns the ready count, 0 on timeout, -1 on
  /// error (errno preserved; EINTR is retried internally).
  int wait(int timeout_ms, std::vector<Event>& out);

  /// Watched fd count.
  std::size_t watched() const noexcept { return watched_; }

 private:
  int epoll_fd_ = -1;
  std::size_t watched_ = 0;
  std::vector<epoll_event> events_;  ///< scratch, sized to the interest set
};

}  // namespace agentloc::net
