#include "net/socket_transport.hpp"

#include <gtest/gtest.h>

#include <fcntl.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

// This binary links with -Wl,--wrap=listen, so every listen(2) the
// transport makes runs through __wrap_listen first. While `watched` is set,
// it counts the calls, notes whether the watched path already exists, and
// can plant a regular file there, as a listener that won a race would.
namespace listen_hook {
std::string watched;
int calls = 0;
int path_existed = 0;
bool plant = false;
}  // namespace listen_hook

extern "C" int __real_listen(int fd, int backlog);
extern "C" int __wrap_listen(int fd, int backlog) {
  if (!listen_hook::watched.empty()) {
    ++listen_hook::calls;
    struct stat st {};
    if (::lstat(listen_hook::watched.c_str(), &st) == 0) {
      ++listen_hook::path_existed;
    }
    if (listen_hook::plant) std::ofstream(listen_hook::watched) << "planted";
  }
  return __real_listen(fd, backlog);
}

namespace agentloc::net {
namespace {

#define SKIP_WITHOUT_SOCKETS()                                  \
  if (!SocketTransport::sockets_available()) {                  \
    GTEST_SKIP() << "sandbox cannot create sockets";            \
  }

TEST(SocketAddress, ParsesUnixAndTcp) {
  SocketAddress address;
  std::string error;
  ASSERT_TRUE(SocketAddress::parse("unix:/tmp/x.sock", address, &error));
  EXPECT_EQ(address.kind, SocketAddress::Kind::kUnix);
  EXPECT_EQ(address.path, "/tmp/x.sock");
  EXPECT_EQ(address.to_string(), "unix:/tmp/x.sock");

  ASSERT_TRUE(SocketAddress::parse("tcp:127.0.0.1:7421", address, &error));
  EXPECT_EQ(address.kind, SocketAddress::Kind::kTcp);
  EXPECT_EQ(address.host, "127.0.0.1");
  EXPECT_EQ(address.port, 7421);
  EXPECT_EQ(address.to_string(), "tcp:127.0.0.1:7421");
}

TEST(SocketAddress, RefusesUnixPathWithoutRoomForTheListenName) {
  // sun_path holds 107 bytes and a NUL; a listener binds the path plus a
  // 10-byte suffix before it publishes the path, so 97 bytes is the most.
  SocketAddress address;
  std::string error;
  const std::string longest = "/tmp/" + std::string(92, 'x');
  ASSERT_EQ(longest.size(), 97u);
  EXPECT_TRUE(SocketAddress::parse("unix:" + longest, address, &error))
      << error;
  EXPECT_FALSE(SocketAddress::parse("unix:" + longest + "y", address, &error));
  EXPECT_NE(error.find("at most 97 bytes"), std::string::npos) << error;
}

TEST(SocketAddress, RejectsMalformedInput) {
  SocketAddress address;
  std::string error;
  for (const char* bad :
       {"", "udp:1.2.3.4:5", "unix:", "tcp:127.0.0.1", "tcp::99",
        "tcp:127.0.0.1:", "tcp:127.0.0.1:0", "tcp:127.0.0.1:70000",
        "tcp:127.0.0.1:12ab", "tcp:nothost:80"}) {
    error.clear();
    EXPECT_FALSE(SocketAddress::parse(bad, address, &error)) << bad;
    EXPECT_FALSE(error.empty()) << bad;
  }
}

struct Pair {
  SocketTransport a;
  SocketTransport b;
  SocketTransport::PeerId a_peer = SocketTransport::kInvalidPeer;
  SocketTransport::PeerId b_peer = SocketTransport::kInvalidPeer;

  Pair() {
    int fds[2] = {-1, -1};
    if (::socketpair(AF_UNIX, SOCK_STREAM, 0, fds) == 0) {
      a_peer = a.adopt(fds[0]);
      b_peer = b.adopt(fds[1]);
    }
  }
};

TEST(SocketTransport, FramesRoundTripOverSocketpair) {
  SKIP_WITHOUT_SOCKETS();
  Pair pair;
  std::vector<std::uint64_t> got;
  pair.b.on_frame([&](SocketTransport::PeerId, const FrameView& frame) {
    EXPECT_EQ(frame.type, FrameType::kUpdate);
    auto reader = frame.payload_reader();
    got.push_back(reader.read_varint());
  });
  for (std::uint64_t i = 0; i < 10; ++i) {
    pair.a.send(pair.a_peer, FrameType::kUpdate, i,
                [&](util::ByteWriter& w) { w.write_varint(100 + i); });
  }
  pair.a.flush(pair.a_peer);
  while (got.size() < 10 && pair.b.poll_once(1000) > 0) {
  }
  ASSERT_EQ(got.size(), 10u);
  for (std::uint64_t i = 0; i < 10; ++i) EXPECT_EQ(got[i], 100 + i);
  EXPECT_EQ(pair.a.stats().frames_sent, 10u);
  EXPECT_EQ(pair.b.stats().frames_received, 10u);
}

TEST(SocketTransport, CoalescingPacksBurstIntoOneSyscall) {
  SKIP_WITHOUT_SOCKETS();
  Pair pair;
  std::size_t received = 0;
  pair.b.on_frame(
      [&](SocketTransport::PeerId, const FrameView&) { ++received; });
  for (int i = 0; i < 8; ++i) {
    pair.a.send(pair.a_peer, FrameType::kPing, 0, nullptr);
  }
  pair.a.flush(pair.a_peer);
  EXPECT_EQ(pair.a.stats().flush_syscalls, 1u)
      << "8 frames coalesced into one buffer must leave in one writev";
  EXPECT_EQ(pair.a.stats().batches_sealed, 1u);
  while (received < 8 && pair.b.poll_once(1000) > 0) {
  }
  EXPECT_EQ(received, 8u);
}

TEST(SocketTransport, LargeBatchSurvivesPartialWrites) {
  SKIP_WITHOUT_SOCKETS();
  // Push far more than the kernel socket buffer in one flush: the transport
  // must queue the remainder and drain it via POLLOUT turns, byte-perfect.
  Pair pair;
  constexpr std::size_t kFrames = 2000;
  constexpr std::size_t kPayload = 4096;
  std::size_t received = 0;
  std::size_t bad = 0;
  pair.b.on_frame([&](SocketTransport::PeerId, const FrameView& frame) {
    if (frame.payload_size != kPayload ||
        frame.payload[0] != static_cast<std::uint8_t>(frame.correlation)) {
      ++bad;
    }
    ++received;
  });
  std::vector<std::uint8_t> payload(kPayload);
  for (std::size_t i = 0; i < kFrames; ++i) {
    payload.assign(kPayload, static_cast<std::uint8_t>(i));
    pair.a.send(pair.a_peer, FrameType::kUpdate, i,
                [&](util::ByteWriter& w) {
                  w.write_bytes(payload.data(), payload.size());
                });
  }
  pair.a.flush(pair.a_peer);
  // Interleave sender drain and receiver reads until everything lands.
  int idle = 0;
  while (received < kFrames && idle < 100) {
    const bool sender_pending = pair.a.pending_bytes(pair.a_peer) > 0;
    if (sender_pending) pair.a.poll_once(10);
    const int got = pair.b.poll_once(10);
    idle = (got > 0 || sender_pending) ? 0 : idle + 1;
  }
  EXPECT_EQ(received, kFrames);
  EXPECT_EQ(bad, 0u);
  EXPECT_EQ(pair.a.pending_bytes(pair.a_peer), 0u);
  EXPECT_GT(pair.a.stats().flush_syscalls, 1u);
}

TEST(SocketTransport, GarbageInputDropsPeerWithDecodeError) {
  SKIP_WITHOUT_SOCKETS();
  int fds[2] = {-1, -1};
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  SocketTransport receiver;
  const auto peer = receiver.adopt(fds[1]);
  bool disconnected = false;
  receiver.on_disconnect(
      [&](SocketTransport::PeerId id) { disconnected = (id == peer); });

  const char garbage[] = "this is not a frame stream";
  ASSERT_GT(::write(fds[0], garbage, sizeof(garbage)), 0);
  while (receiver.peer_open(peer) && receiver.poll_once(1000) > 0) {
  }
  EXPECT_FALSE(receiver.peer_open(peer));
  EXPECT_TRUE(disconnected);
  EXPECT_EQ(receiver.stats().decode_errors, 1u);
  ::close(fds[0]);
}

TEST(SocketTransport, PeerEofCountsAsDisconnect) {
  SKIP_WITHOUT_SOCKETS();
  int fds[2] = {-1, -1};
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  SocketTransport receiver;
  const auto peer = receiver.adopt(fds[1]);
  ::close(fds[0]);
  while (receiver.peer_open(peer) && receiver.poll_once(1000) > 0) {
  }
  EXPECT_FALSE(receiver.peer_open(peer));
  EXPECT_EQ(receiver.stats().disconnects, 1u);
  EXPECT_EQ(receiver.peer_count(), 0u);
}

TEST(SocketTransport, SendToClosedPeerFailsCleanly) {
  SKIP_WITHOUT_SOCKETS();
  Pair pair;
  pair.a.close_peer(pair.a_peer);
  EXPECT_FALSE(pair.a.peer_open(pair.a_peer));
  EXPECT_FALSE(pair.a.send(pair.a_peer, FrameType::kPing, 0, nullptr));
  EXPECT_FALSE(pair.a.send(SocketTransport::kInvalidPeer, FrameType::kPing, 0,
                           nullptr));
}

/// Send 41 from a fresh client through `address`, let `server` answer it
/// plus one, and return {what the server read, what the client read}.
std::pair<std::uint64_t, std::uint64_t> echo_once(
    SocketTransport& server, const SocketAddress& address) {
  std::uint64_t echoed = 0;
  server.on_frame([&](SocketTransport::PeerId peer, const FrameView& frame) {
    auto reader = frame.payload_reader();
    echoed = reader.read_varint();
    server.send(peer, FrameType::kPong, frame.correlation,
                [&](util::ByteWriter& w) { w.write_varint(echoed + 1); });
  });

  SocketTransport client;
  std::string error;
  const auto peer = client.connect(address, &error);
  EXPECT_NE(peer, SocketTransport::kInvalidPeer) << error;
  if (peer == SocketTransport::kInvalidPeer) return {echoed, 0};
  std::uint64_t answer = 0;
  client.on_frame([&](SocketTransport::PeerId, const FrameView& frame) {
    auto reader = frame.payload_reader();
    answer = reader.read_varint();
  });
  client.send(peer, FrameType::kPing, 1,
              [](util::ByteWriter& w) { w.write_varint(41); });
  client.flush(peer);
  for (int i = 0; i < 100 && answer == 0; ++i) {
    server.poll_once(50);
    client.poll_once(50);
  }
  return {echoed, answer};
}

SocketAddress unix_address(const std::string& tag) {
  SocketAddress address;
  address.kind = SocketAddress::Kind::kUnix;
  address.path = "/tmp/agentloc-" + tag + "-" + std::to_string(::getpid()) +
                 ".sock";
  return address;
}

/// Entries beside `path` whose names extend it, e.g. a temporary name.
std::size_t names_extending(const std::string& path) {
  const std::filesystem::path file(path);
  const std::string prefix = file.filename().string() + ".";
  std::size_t found = 0;
  for (const auto& entry :
       std::filesystem::directory_iterator(file.parent_path())) {
    if (entry.path().filename().string().rfind(prefix, 0) == 0) ++found;
  }
  return found;
}

TEST(SocketTransport, ListenConnectOverUnixSocket) {
  SKIP_WITHOUT_SOCKETS();
  const SocketAddress address = unix_address("test");
  SocketTransport server;
  std::string error;
  ASSERT_TRUE(server.listen(address, &error)) << error;
  const auto [echoed, answer] = echo_once(server, address);
  EXPECT_EQ(server.stats().accepts, 1u);
  EXPECT_EQ(echoed, 41u);
  EXPECT_EQ(answer, 42u);
  ::unlink(address.path.c_str());
}

TEST(SocketTransport, UnixPathAppearsOnlyOnceListening) {
  SKIP_WITHOUT_SOCKETS();
  // A path that exists before listen(2) refuses connects, and another
  // listener's probe would take this live one for stale.
  const SocketAddress address = unix_address("published");
  listen_hook::watched = address.path;
  listen_hook::calls = 0;
  listen_hook::path_existed = 0;
  SocketTransport server;
  std::string error;
  const bool listening = server.listen(address, &error);
  listen_hook::watched.clear();
  ASSERT_TRUE(listening) << error;
  EXPECT_EQ(listen_hook::calls, 1);
  EXPECT_EQ(listen_hook::path_existed, 0)
      << address.path << " existed before its socket listened";
  EXPECT_TRUE(std::filesystem::is_socket(address.path));
  EXPECT_EQ(names_extending(address.path), 0u);  // no temporary name left

  const auto [echoed, answer] = echo_once(server, address);
  EXPECT_EQ(echoed, 41u);
  EXPECT_EQ(answer, 42u);
  server.close_all();
  EXPECT_FALSE(std::filesystem::exists(address.path));
}

TEST(SocketTransport, UnixListenKeepsAPathTakenBeforeItsLink) {
  SKIP_WITHOUT_SOCKETS();
  // Something appears at the path between the stale-socket probe and the
  // link: the listen fails, leaves it in place, and unlinks its own name.
  const SocketAddress address = unix_address("raced");
  listen_hook::watched = address.path;
  listen_hook::plant = true;
  SocketTransport server;
  std::string error;
  const bool listening = server.listen(address, &error);
  listen_hook::watched.clear();
  listen_hook::plant = false;
  EXPECT_FALSE(listening);
  EXPECT_NE(error.find("is in use"), std::string::npos) << error;
  std::string kept;
  std::getline(std::ifstream(address.path), kept);
  EXPECT_EQ(kept, "planted");
  EXPECT_EQ(names_extending(address.path), 0u);
  std::filesystem::remove(address.path);
}

TEST(SocketTransport, AdoptRejectsUnwatchableFd) {
  SKIP_WITHOUT_SOCKETS();
  // epoll refuses regular files. Adopting one must not yield an open peer
  // that is never polled: the transport closes the fd and reports no peer.
  std::string path = ::testing::TempDir() + "agentloc_unwatchable_XXXXXX";
  const int fd = ::mkstemp(path.data());
  ASSERT_GE(fd, 0);
  ::unlink(path.c_str());
  SocketTransport transport;
  const auto peer = transport.adopt(fd);
  EXPECT_EQ(peer, SocketTransport::kInvalidPeer);
  EXPECT_FALSE(transport.peer_open(peer));
  EXPECT_EQ(transport.peer_count(), 0u);
  EXPECT_EQ(::fcntl(fd, F_GETFD), -1) << "adopted fd left open";
}

TEST(SocketTransport, PeerSlotReuseAfterDisconnect) {
  SKIP_WITHOUT_SOCKETS();
  SocketTransport transport;
  int fds[2] = {-1, -1};
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  const auto first = transport.adopt(fds[1]);
  ::close(fds[0]);
  while (transport.peer_open(first) && transport.poll_once(1000) > 0) {
  }
  ASSERT_FALSE(transport.peer_open(first));

  int fds2[2] = {-1, -1};
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds2), 0);
  const auto second = transport.adopt(fds2[1]);
  EXPECT_EQ(second, first) << "closed slots are recycled";
  EXPECT_EQ(transport.peer_count(), 1u);
  ::close(fds2[0]);
}

}  // namespace
}  // namespace agentloc::net
