#include "net/socket_transport.hpp"

#include <algorithm>
#include <arpa/inet.h>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fcntl.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/uio.h>
#include <sys/un.h>
#include <unistd.h>

namespace agentloc::net {
namespace {

/// Sealed buffers gathered into one writev.
constexpr std::size_t kMaxBatchIov = 16;
/// An open coalescing batch is sealed once it holds this many bytes.
constexpr std::size_t kSendBufferCap = 16u << 10;
/// Bytes requested from the kernel per recv().
constexpr std::size_t kReadChunk = 64u << 10;
/// Pending connections the kernel queues on the listen socket.
constexpr int kListenBacklog = 16;
/// A unix listener binds `<path>.~<pid as 8 hex digits>` and links `<path>`
/// to it only once it listens; sun_path must hold that longer name.
constexpr std::size_t kListenTempSuffix = 10;

std::string errno_text(const char* what) {
  return std::string(what) + ": " + std::strerror(errno);
}

sockaddr_un unix_sockaddr(const std::string& path) {
  sockaddr_un sun{};
  sun.sun_family = AF_UNIX;
  std::strncpy(sun.sun_path, path.c_str(), sizeof(sun.sun_path) - 1);
  return sun;
}

/// Free `path` for a new unix listener without taking it from anyone: a
/// stale socket (its listener gone, so connecting is refused) is unlinked;
/// a live socket, or anything that is not a socket, is refused and left in
/// place. A path lstat cannot read is left for bind to report.
bool claim_unix_path(const std::string& path, std::string* error) {
  struct stat st {};
  if (::lstat(path.c_str(), &st) != 0) return true;
  if (!S_ISSOCK(st.st_mode)) {
    if (error) *error = "bind(unix): " + path + " exists and is not a socket";
    return false;
  }
  // Nonblocking, so a live listener with a full backlog answers EAGAIN
  // instead of stalling the probe.
  const int probe = ::socket(AF_UNIX, SOCK_STREAM | SOCK_NONBLOCK, 0);
  if (probe < 0) {
    if (error) *error = errno_text("socket(AF_UNIX)");
    return false;
  }
  const sockaddr_un sun = unix_sockaddr(path);
  const bool stale = ::connect(probe, reinterpret_cast<const sockaddr*>(&sun),
                               sizeof(sun)) != 0 &&
                     errno == ECONNREFUSED;
  ::close(probe);
  if (!stale) {
    if (error) *error = "bind(unix): " + path + " is in use";
    return false;
  }
  ::unlink(path.c_str());
  return true;
}

}  // namespace

bool SocketAddress::parse(const std::string& text, SocketAddress& out,
                          std::string* error) {
  if (text.rfind("unix:", 0) == 0) {
    out.kind = Kind::kUnix;
    out.path = text.substr(5);
    if (out.path.empty()) {
      if (error) *error = "unix address needs a path: unix:/some/path";
      return false;
    }
    // sun_path is a fixed-size array; reject what bind() would truncate,
    // counting the temporary name a listener binds first.
    const std::size_t longest =
        sizeof(sockaddr_un{}.sun_path) - 1 - kListenTempSuffix;
    if (out.path.size() > longest) {
      if (error) {
        *error = "unix socket path too long: at most " +
                 std::to_string(longest) + " bytes";
      }
      return false;
    }
    return true;
  }
  if (text.rfind("tcp:", 0) == 0) {
    const std::string rest = text.substr(4);
    const std::size_t colon = rest.rfind(':');
    if (colon == std::string::npos || colon == 0 ||
        colon + 1 == rest.size()) {
      if (error) *error = "tcp address needs host:port, e.g. tcp:127.0.0.1:7421";
      return false;
    }
    out.kind = Kind::kTcp;
    out.host = rest.substr(0, colon);
    unsigned long port = 0;
    const std::string port_text = rest.substr(colon + 1);
    for (char c : port_text) {
      if (c < '0' || c > '9') {
        if (error) *error = "tcp port must be numeric";
        return false;
      }
      port = port * 10 + static_cast<unsigned long>(c - '0');
      if (port > 65535) break;
    }
    if (port == 0 || port > 65535) {
      if (error) *error = "tcp port out of range";
      return false;
    }
    out.port = static_cast<std::uint16_t>(port);
    in_addr probe{};
    if (inet_pton(AF_INET, out.host.c_str(), &probe) != 1) {
      if (error) *error = "tcp host must be an IPv4 literal";
      return false;
    }
    return true;
  }
  if (error) *error = "address must start with unix: or tcp:";
  return false;
}

std::string SocketAddress::to_string() const {
  if (kind == Kind::kUnix) return "unix:" + path;
  return "tcp:" + host + ":" + std::to_string(port);
}

SocketTransport::~SocketTransport() { close_all(); }

bool SocketTransport::sockets_available() {
  int fds[2] = {-1, -1};
  if (::socketpair(AF_UNIX, SOCK_STREAM, 0, fds) != 0) return false;
  // A socket nothing can watch is as unusable as no socket: a kernel
  // without epoll takes the same skip path.
  EventLoop loop;
  const bool watchable = loop.add(fds[0], /*want_read=*/true,
                                  /*want_write=*/false);
  ::close(fds[0]);
  ::close(fds[1]);
  return watchable;
}

bool SocketTransport::set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0) return false;
  return ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0;
}

SocketTransport::PeerId SocketTransport::register_fd(int fd) {
  set_nonblocking(fd);
  // An fd the loop refuses would be an open peer that is never polled.
  if (!loop_.add(fd, /*want_read=*/true, /*want_write=*/false)) {
    if (fd >= 0) ::close(fd);
    return kInvalidPeer;
  }
  FrameDecoder decoder(pool_);
  // Reuse a closed slot if one exists so long-lived servers don't grow the
  // peer table monotonically under connection churn.
  PeerId id = kInvalidPeer;
  for (std::size_t i = 0; i < peers_.size(); ++i) {
    if (peers_[i].fd < 0) {
      peers_[i] = Peer(std::move(decoder));
      peers_[i].fd = fd;
      id = static_cast<PeerId>(i);
      break;
    }
  }
  if (id == kInvalidPeer) {
    peers_.emplace_back(std::move(decoder));
    peers_.back().fd = fd;
    id = static_cast<PeerId>(peers_.size() - 1);
  }
  if (static_cast<std::size_t>(fd) >= fd_owner_.size()) {
    fd_owner_.resize(static_cast<std::size_t>(fd) + 1, kInvalidPeer);
  }
  fd_owner_[static_cast<std::size_t>(fd)] = id;
  return id;
}

SocketTransport::PeerId SocketTransport::owner_of(int fd) const noexcept {
  if (fd < 0 || static_cast<std::size_t>(fd) >= fd_owner_.size()) {
    return kInvalidPeer;
  }
  return fd_owner_[static_cast<std::size_t>(fd)];
}

bool SocketTransport::listen(const SocketAddress& address,
                             std::string* error) {
  if (listen_fd_ >= 0) {
    if (error) *error = "transport already listening";
    return false;
  }
  int fd = -1;
  std::string temp_path;  // the unix socket's name until it listens
  // Every failure after socket() closes the fd and unlinks what it bound.
  const auto fail = [&](std::string what) {
    if (error) *error = std::move(what);
    ::close(fd);
    if (!temp_path.empty()) ::unlink(temp_path.c_str());
    if (!listen_unix_path_.empty()) {
      ::unlink(listen_unix_path_.c_str());
      listen_unix_path_.clear();
    }
    return false;
  };
  if (address.kind == SocketAddress::Kind::kUnix) {
    if (!claim_unix_path(address.path, error)) return false;
    fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0) {
      if (error) *error = errno_text("socket(AF_UNIX)");
      return false;
    }
    // Bind and listen under a name of this process's own, and publish the
    // requested path only then: a connect that finds the path is accepted,
    // so another listener's probe never takes this one for stale.
    char suffix[kListenTempSuffix + 1];
    std::snprintf(suffix, sizeof(suffix), ".~%08x",
                  static_cast<unsigned>(::getpid()));
    const std::string temp = address.path + suffix;
    const sockaddr_un sun = unix_sockaddr(temp);
    if (temp.size() >= sizeof(sun.sun_path)) {
      return fail("unix socket path too long");
    }
    if (::bind(fd, reinterpret_cast<const sockaddr*>(&sun), sizeof(sun)) !=
        0) {
      return fail(errno_text("bind(unix)"));
    }
    temp_path = temp;
    if (::listen(fd, kListenBacklog) != 0) return fail(errno_text("listen"));
    // link() never replaces: a path taken since the probe stays its owner's.
    if (::link(temp_path.c_str(), address.path.c_str()) != 0) {
      return fail(errno == EEXIST
                      ? "bind(unix): " + address.path + " is in use"
                      : errno_text("link(unix)"));
    }
    ::unlink(temp_path.c_str());
    temp_path.clear();
    listen_unix_path_ = address.path;
  } else {
    fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) {
      if (error) *error = errno_text("socket(AF_INET)");
      return false;
    }
    // SO_REUSEADDR lets a restart bind past TIME_WAIT; a port another
    // listener still holds fails the bind with EADDRINUSE.
    const int one = 1;
    ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    sockaddr_in sin{};
    sin.sin_family = AF_INET;
    sin.sin_port = htons(address.port);
    if (inet_pton(AF_INET, address.host.c_str(), &sin.sin_addr) != 1) {
      return fail("tcp host must be an IPv4 literal");
    }
    if (::bind(fd, reinterpret_cast<sockaddr*>(&sin), sizeof(sin)) != 0) {
      return fail(errno_text("bind(tcp)"));
    }
    if (::listen(fd, kListenBacklog) != 0) return fail(errno_text("listen"));
  }
  set_nonblocking(fd);
  if (!loop_.add(fd, /*want_read=*/true, /*want_write=*/false)) {
    return fail(errno_text("epoll_ctl(listen)"));
  }
  listen_fd_ = fd;
  return true;
}

SocketTransport::PeerId SocketTransport::connect(const SocketAddress& address,
                                                 std::string* error) {
  int fd = -1;
  int rc = -1;
  if (address.kind == SocketAddress::Kind::kUnix) {
    fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0) {
      if (error) *error = errno_text("socket(AF_UNIX)");
      return kInvalidPeer;
    }
    const sockaddr_un sun = unix_sockaddr(address.path);
    rc = ::connect(fd, reinterpret_cast<const sockaddr*>(&sun), sizeof(sun));
  } else {
    fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) {
      if (error) *error = errno_text("socket(AF_INET)");
      return kInvalidPeer;
    }
    sockaddr_in sin{};
    sin.sin_family = AF_INET;
    sin.sin_port = htons(address.port);
    if (inet_pton(AF_INET, address.host.c_str(), &sin.sin_addr) != 1) {
      if (error) *error = "tcp host must be an IPv4 literal";
      ::close(fd);
      return kInvalidPeer;
    }
    // Loopback connects complete synchronously; blocking here keeps the
    // API simple (no half-open connecting state to track in the loop).
    rc = ::connect(fd, reinterpret_cast<sockaddr*>(&sin), sizeof(sin));
  }
  if (rc != 0) {
    if (error) *error = errno_text("connect");
    ::close(fd);
    return kInvalidPeer;
  }
  const PeerId id = register_fd(fd);
  if (id == kInvalidPeer) {
    if (error) *error = "event loop cannot watch the connected socket";
    return kInvalidPeer;
  }
  return id;
}

SocketTransport::PeerId SocketTransport::adopt(int fd) {
  return register_fd(fd);
}

bool SocketTransport::send(
    PeerId peer, FrameType type, std::uint64_t correlation,
    util::FunctionRef<void(util::ByteWriter&)> encode_payload,
    std::uint8_t flags) {
  if (!peer_open(peer)) return false;
  Peer& p = peers_[static_cast<std::size_t>(peer)];
  if (!p.batch_open) {
    p.batch = util::ByteWriter(pool_.acquire(kSendBufferCap));
    p.batch_open = true;
  }
  const OpenFrame open = begin_frame(p.batch, type, correlation, flags);
  if (encode_payload) encode_payload(p.batch);
  end_frame(p.batch, open);
  ++stats_.frames_sent;
  if (p.batch.size() >= kSendBufferCap) seal_batch(p);
  return true;
}

void SocketTransport::seal_batch(Peer& peer) {
  if (!peer.batch_open || peer.batch.size() == 0) {
    peer.batch_open = false;
    return;
  }
  PendingBuffer pending;
  pending.bytes = std::move(peer.batch).take();
  peer.batch = util::ByteWriter();
  peer.batch_open = false;
  peer.sendq.push_back(std::move(pending));
  ++stats_.batches_sealed;
}

void SocketTransport::flush(PeerId peer) {
  if (!peer_open(peer)) return;
  seal_batch(peers_[static_cast<std::size_t>(peer)]);
  flush_pending(peer);
}

void SocketTransport::flush_all() {
  for (std::size_t i = 0; i < peers_.size(); ++i) {
    if (peers_[i].fd >= 0) flush(static_cast<PeerId>(i));
  }
}

void SocketTransport::flush_pending(PeerId id) {
  Peer& peer = peers_[static_cast<std::size_t>(id)];
  while (!peer.sendq.empty()) {
    iovec iov[kMaxBatchIov];
    const std::size_t count = std::min(peer.sendq.size(), kMaxBatchIov);
    for (std::size_t i = 0; i < count; ++i) {
      PendingBuffer& buf = peer.sendq[i];
      iov[i].iov_base = buf.bytes.data() + buf.offset;
      iov[i].iov_len = buf.bytes.size() - buf.offset;
    }
    // sendmsg(MSG_NOSIGNAL) rather than writev: writing into a connection
    // the peer already closed must surface as EPIPE (→ drop_peer), not
    // SIGPIPE — a sharded client flushing to a dead worker would otherwise
    // kill the process.
    msghdr msg{};
    msg.msg_iov = iov;
    msg.msg_iovlen = count;
    const ssize_t wrote = ::sendmsg(peer.fd, &msg, MSG_NOSIGNAL);
    if (wrote < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) return;  // wait for POLLOUT
      drop_peer(id, true);
      return;
    }
    ++stats_.flush_syscalls;
    stats_.bytes_sent += static_cast<std::uint64_t>(wrote);
    std::size_t left = static_cast<std::size_t>(wrote);
    while (left > 0 && !peer.sendq.empty()) {
      PendingBuffer& buf = peer.sendq.front();
      const std::size_t buf_left = buf.bytes.size() - buf.offset;
      if (left >= buf_left) {
        left -= buf_left;
        pool_.release(std::move(buf.bytes));
        peer.sendq.pop_front();
      } else {
        buf.offset += left;
        left = 0;
      }
    }
  }
}

void SocketTransport::read_ready(PeerId id) {
  // The frame handler may adopt/connect new peers, which can reallocate
  // peers_ — re-index after every callback instead of caching a reference.
  const std::size_t slot = static_cast<std::size_t>(id);
  for (;;) {
    std::uint8_t* dst = peers_[slot].decoder.writable(kReadChunk);
    const ssize_t got = ::recv(peers_[slot].fd, dst, kReadChunk, 0);
    if (got < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) return;
      drop_peer(id, true);
      return;
    }
    if (got == 0) {  // orderly EOF
      drop_peer(id, true);
      return;
    }
    ++stats_.read_syscalls;
    stats_.bytes_received += static_cast<std::uint64_t>(got);
    peers_[slot].decoder.commit(static_cast<std::size_t>(got));
    FrameView view;
    for (;;) {
      const FrameDecoder::Status status = peers_[slot].decoder.next(view);
      if (status == FrameDecoder::Status::kFrame) {
        ++stats_.frames_received;
        if (on_frame_) on_frame_(id, view);
        if (peers_[slot].fd < 0) return;  // handler closed this peer
        continue;
      }
      if (status == FrameDecoder::Status::kError) {
        ++stats_.decode_errors;
        drop_peer(id, true);
        return;
      }
      break;  // kNeedMore
    }
    if (static_cast<std::size_t>(got) < kReadChunk) return;
  }
}

int SocketTransport::poll_once(int timeout_ms) {
  // Sync write interest with queue state: a peer subscribes to writability
  // only while sealed bytes are waiting on the kernel, so an idle peer
  // never spins the loop with a perpetually-writable fd.
  for (Peer& peer : peers_) {
    if (peer.fd < 0) continue;
    const bool want_write = !peer.sendq.empty();
    if (want_write != peer.want_write) {
      loop_.modify(peer.fd, /*want_read=*/true, want_write);
      peer.want_write = want_write;
    }
  }
  if (loop_.watched() == 0) return 0;
  const int ready = loop_.wait(timeout_ms, events_);
  if (ready <= 0) return ready;
  for (const EventLoop::Event& event : events_) {
    if (event.fd == listen_fd_ && listen_fd_ >= 0) {
      for (;;) {  // drain the accept queue
        const int fd = ::accept(listen_fd_, nullptr, nullptr);
        if (fd < 0) break;
        const PeerId id = register_fd(fd);
        if (id == kInvalidPeer) continue;
        ++stats_.accepts;
      }
      continue;
    }
    // Resolve through the fd→peer map instead of a snapshot: the peer may
    // have been dropped (and its slot reused) by an earlier event or a
    // frame handler this same turn.
    const PeerId id = owner_of(event.fd);
    if (id == kInvalidPeer) continue;
    if (event.writable && peer_open(id)) flush_pending(id);
    if ((event.readable || event.hangup) && peer_open(id)) read_ready(id);
  }
  // End-of-turn flush: every reply queued while dispatching this turn's
  // frames leaves now, coalesced per peer.
  flush_all();
  return ready;
}

bool SocketTransport::peer_open(PeerId peer) const noexcept {
  return peer >= 0 && static_cast<std::size_t>(peer) < peers_.size() &&
         peers_[static_cast<std::size_t>(peer)].fd >= 0;
}

std::size_t SocketTransport::pending_bytes(PeerId peer) const noexcept {
  if (!peer_open(peer)) return 0;
  const Peer& p = peers_[static_cast<std::size_t>(peer)];
  std::size_t total = p.batch_open ? p.batch.size() : 0;
  for (const PendingBuffer& buf : p.sendq) {
    total += buf.bytes.size() - buf.offset;
  }
  return total;
}

void SocketTransport::drop_peer(PeerId id, bool count_disconnect) {
  Peer& peer = peers_[static_cast<std::size_t>(id)];
  if (peer.fd < 0) return;
  loop_.remove(peer.fd);
  if (static_cast<std::size_t>(peer.fd) < fd_owner_.size()) {
    fd_owner_[static_cast<std::size_t>(peer.fd)] = kInvalidPeer;
  }
  ::close(peer.fd);
  peer.fd = -1;
  peer.want_write = false;
  while (!peer.sendq.empty()) {
    pool_.release(std::move(peer.sendq.front().bytes));
    peer.sendq.pop_front();
  }
  // The open batch and the decode buffer go back to the pool too, so a
  // disconnect leaves no pooled bytes stranded on the dead slot (the slot
  // keeps one fresh decoder buffer for reuse, like a never-used slot).
  if (peer.batch_open) pool_.release(std::move(peer.batch).take());
  peer.batch = util::ByteWriter();
  peer.batch_open = false;
  peer.decoder = FrameDecoder(pool_);
  if (count_disconnect) {
    ++stats_.disconnects;
    if (on_disconnect_) on_disconnect_(id);
  }
}

void SocketTransport::close_peer(PeerId peer) {
  if (!peer_open(peer)) return;
  flush(peer);  // best effort on whatever the kernel takes right now
  drop_peer(peer, false);
}

void SocketTransport::close_all() {
  for (std::size_t i = 0; i < peers_.size(); ++i) {
    if (peers_[i].fd >= 0) close_peer(static_cast<PeerId>(i));
  }
  if (listen_fd_ >= 0) {
    loop_.remove(listen_fd_);
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  if (!listen_unix_path_.empty()) {
    ::unlink(listen_unix_path_.c_str());
    listen_unix_path_.clear();
  }
}

std::size_t SocketTransport::peer_count() const noexcept {
  std::size_t open = 0;
  for (const Peer& peer : peers_) {
    if (peer.fd >= 0) ++open;
  }
  return open;
}

}  // namespace agentloc::net
