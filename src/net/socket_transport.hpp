#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <string>
#include <vector>

#include "net/event_loop.hpp"
#include "net/frame.hpp"
#include "util/buffer_pool.hpp"
#include "util/bytebuffer.hpp"
#include "util/function_ref.hpp"

namespace agentloc::net {

/// A parsed transport endpoint address.
///
///   "unix:/tmp/agentloc.sock"  — Unix-domain stream socket
///   "tcp:127.0.0.1:7421"       — TCP loopback (any v4 literal accepted)
struct SocketAddress {
  enum class Kind : std::uint8_t { kUnix, kTcp };

  Kind kind = Kind::kUnix;
  std::string path;  ///< kUnix: filesystem path
  std::string host;  ///< kTcp: v4 address literal
  std::uint16_t port = 0;

  /// Parse the "unix:…" / "tcp:host:port" syntax. Returns false and fills
  /// `error` on malformed input, or on a unix path that leaves no room in
  /// `sun_path` for the temporary name a listener binds first (at most 97
  /// bytes).
  static bool parse(const std::string& text, SocketAddress& out,
                    std::string* error);

  std::string to_string() const;
};

/// Real-wire backend of the message plane (DESIGN.md §17).
///
/// Where `net::Transport` is the *planning* seam — simulated physics the
/// platform consults for delay/copies — `SocketTransport` binds one layer
/// down, at the frame boundary: it moves encoded `net::Frame` bytes between
/// real processes over Unix-domain or TCP-loopback stream sockets. The
/// simulator path and the socket path therefore share everything above the
/// wire (payload serialization, frame codec, protocol types) and differ only
/// in who carries the bytes.
///
/// Mechanics:
///  - one `net::EventLoop` (a level-triggered epoll instance) per
///    transport, all fds nonblocking: a partially drained fd re-reports on
///    the next turn. An fd the loop refuses is closed and never becomes a
///    peer. Write interest is subscribed only while a peer has sealed bytes
///    queued, synced at the top of each `poll_once` turn.
///  - per-peer send queues: frames are encoded back-to-back into pooled
///    buffers and flushed with a single `writev(2)` gathering up to 16
///    buffers — the syscalls-per-frame lever measured by bench_transport.
///  - receives land directly in each peer's `FrameDecoder` pooled buffer
///    (`writable`/`commit`, no intermediate copy) and complete frames are
///    handed to the frame handler as views.
///
/// Single-threaded like the rest of the codebase: one transport per event
/// loop thread. Sandboxes without socket support are first-class: probe with
/// `sockets_available()` and skip (tests GTEST_SKIP, benches emit codec-only
/// rows, the smoke script exits 77).
class SocketTransport {
 public:
  using PeerId = int;
  static constexpr PeerId kInvalidPeer = -1;

  struct Stats {
    std::uint64_t frames_sent = 0;
    std::uint64_t frames_received = 0;
    std::uint64_t bytes_sent = 0;
    std::uint64_t bytes_received = 0;
    std::uint64_t flush_syscalls = 0;  ///< writev/write calls that sent >0
    std::uint64_t read_syscalls = 0;   ///< recv calls that returned >0
    std::uint64_t batches_sealed = 0;
    std::uint64_t accepts = 0;
    std::uint64_t disconnects = 0;
    std::uint64_t decode_errors = 0;
  };

  /// Complete inbound frame. The view is only valid for the duration of the
  /// callback (it aliases the peer's decode buffer).
  using FrameHandler = std::function<void(PeerId, const FrameView&)>;
  /// Peer closed: EOF, error, or protocol violation (`decode_errors`).
  using DisconnectHandler = std::function<void(PeerId)>;

  SocketTransport() = default;
  ~SocketTransport();
  SocketTransport(const SocketTransport&) = delete;
  SocketTransport& operator=(const SocketTransport&) = delete;

  /// Whether this process may create sockets and watch them (sandboxes
  /// differ). Probes with a socketpair registered on an `EventLoop`; cheap
  /// enough to call once at startup.
  static bool sockets_available();

  void on_frame(FrameHandler handler) { on_frame_ = std::move(handler); }
  void on_disconnect(DisconnectHandler handler) {
    on_disconnect_ = std::move(handler);
  }

  /// Bind + listen. One listener per transport. False + `error` on failure:
  /// an address another listener holds (a live TCP port or unix socket), a
  /// unix path that holds anything but a socket (nothing there is removed),
  /// or a listen socket the event loop refuses to watch. A stale unix
  /// socket, one that no listener accepts on, is unlinked and reclaimed.
  /// A unix socket is bound and listening under a temporary name before
  /// `link(2)` publishes it at the requested path, so a connect to that path
  /// is never refused by a listener that is still starting.
  bool listen(const SocketAddress& address, std::string* error);

  /// Connect to a listening transport. Returns the new peer id, or
  /// kInvalidPeer with `error` set.
  PeerId connect(const SocketAddress& address, std::string* error);

  /// Adopt an already-connected stream fd (e.g. one end of a socketpair).
  /// The transport takes ownership and sets it nonblocking. An fd the event
  /// loop cannot watch is closed and kInvalidPeer returned.
  PeerId adopt(int fd);

  /// Encode one frame into `peer`'s pending batch; `encode_payload` writes
  /// the payload through the supplied writer (which points into a pooled
  /// buffer — this is the zero-copy path). It is a non-owning reference,
  /// called before `send` returns, so a capturing encoder never allocates.
  /// Nothing hits the wire until the batch seals and a flush or POLLOUT
  /// drains it. Returns false if the peer is closed.
  bool send(PeerId peer, FrameType type, std::uint64_t correlation,
            util::FunctionRef<void(util::ByteWriter&)> encode_payload,
            std::uint8_t flags = 0);

  /// Seal the open batch and write as much pending data as the kernel
  /// accepts right now. Remaining bytes stay queued for POLLOUT.
  void flush(PeerId peer);
  void flush_all();

  /// One event-loop turn: wait on the loop, accept, read/dispatch,
  /// drain writable send queues, then flush everything queued during the
  /// turn — so replies to all requests processed this turn coalesce into
  /// one writev per peer. Returns the loop's ready count (0 on
  /// timeout). Not reentrant: frame handlers must not call poll_once.
  int poll_once(int timeout_ms);

  /// True while `peer` has an open fd.
  bool peer_open(PeerId peer) const noexcept;
  /// Bytes queued (sealed + open batch) for `peer`.
  std::size_t pending_bytes(PeerId peer) const noexcept;

  void close_peer(PeerId peer);
  void close_all();

  std::size_t peer_count() const noexcept;  ///< open peers
  const Stats& stats() const noexcept { return stats_; }
  util::BufferPool& pool() noexcept { return pool_; }

 private:
  struct PendingBuffer {
    std::vector<std::uint8_t> bytes;
    std::size_t offset = 0;  ///< already written to the kernel
  };

  struct Peer {
    int fd = -1;
    FrameDecoder decoder;
    std::deque<PendingBuffer> sendq;
    util::ByteWriter batch;  ///< open (unsealed) coalescing batch
    bool batch_open = false;
    bool want_write = false;  ///< current write subscription at the loop

    explicit Peer(FrameDecoder decoder_in) : decoder(std::move(decoder_in)) {}
  };

  PeerId register_fd(int fd);
  PeerId owner_of(int fd) const noexcept;
  void seal_batch(Peer& peer);
  void flush_pending(PeerId id);
  void read_ready(PeerId id);
  void drop_peer(PeerId id, bool count_disconnect);
  static bool set_nonblocking(int fd);

  Stats stats_;
  util::BufferPool pool_;
  EventLoop loop_;
  std::vector<Peer> peers_;
  std::vector<PeerId> fd_owner_;  ///< fd → open peer id (kInvalidPeer: none)
  std::vector<EventLoop::Event> events_;  ///< scratch for poll_once
  int listen_fd_ = -1;
  std::string listen_unix_path_;  ///< unlinked on close
  FrameHandler on_frame_;
  DisconnectHandler on_disconnect_;
};

}  // namespace agentloc::net
