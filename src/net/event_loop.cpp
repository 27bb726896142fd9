#include "net/event_loop.hpp"

#include <cerrno>
#include <unistd.h>

namespace agentloc::net {
namespace {

epoll_event make_event(int fd, bool want_read, bool want_write) {
  epoll_event event{};
  if (want_read) event.events |= EPOLLIN;
  if (want_write) event.events |= EPOLLOUT;
  event.data.fd = fd;
  return event;
}

}  // namespace

EventLoop::EventLoop() : epoll_fd_(::epoll_create1(EPOLL_CLOEXEC)) {}

EventLoop::~EventLoop() {
  if (epoll_fd_ >= 0) ::close(epoll_fd_);
}

bool EventLoop::add(int fd, bool want_read, bool want_write) {
  if (fd < 0) return false;
  epoll_event event = make_event(fd, want_read, want_write);
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &event) != 0) return false;
  ++watched_;
  return true;
}

bool EventLoop::modify(int fd, bool want_read, bool want_write) {
  epoll_event event = make_event(fd, want_read, want_write);
  return ::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, fd, &event) == 0;
}

void EventLoop::remove(int fd) {
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, fd, nullptr) == 0) {
    if (watched_ > 0) --watched_;
  }
}

int EventLoop::wait(int timeout_ms, std::vector<Event>& out) {
  out.clear();
  if (watched_ == 0) return 0;
  events_.resize(watched_);
  int ready = 0;
  do {
    ready = ::epoll_wait(epoll_fd_, events_.data(),
                         static_cast<int>(events_.size()), timeout_ms);
  } while (ready < 0 && errno == EINTR);
  if (ready <= 0) return ready;
  for (int i = 0; i < ready; ++i) {
    const epoll_event& raw = events_[static_cast<std::size_t>(i)];
    Event event;
    event.fd = raw.data.fd;
    event.readable = (raw.events & EPOLLIN) != 0;
    event.writable = (raw.events & EPOLLOUT) != 0;
    event.hangup = (raw.events & (EPOLLHUP | EPOLLERR)) != 0;
    out.push_back(event);
  }
  return ready;
}

}  // namespace agentloc::net
