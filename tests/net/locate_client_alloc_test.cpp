// The wire client encodes each frame straight into its peer's open batch, a
// pooled buffer, so once that batch is open an update frame allocates
// nothing: `SocketTransport::send` takes the payload encoder by non-owning
// reference, and `LocateClient::send_update`'s encoder, which captures three
// references (past `std::function`'s 16-byte local buffer), stays on the
// caller's stack. This binary replaces the global allocation functions with
// versions that count the calling thread's allocations, so the server's
// worker thread cannot disturb the count.

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdint>
#include <cstdlib>
#include <new>
#include <string>

#include "net/locate_server.hpp"
#include "net/locate_service.hpp"

namespace {
thread_local std::uint64_t t_allocations = 0;
}  // namespace

void* operator new(std::size_t size) {
  ++t_allocations;
  if (void* ptr = std::malloc(size)) return ptr;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) { return ::operator new(size); }

void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  ++t_allocations;
  return std::malloc(size);
}

void* operator new[](std::size_t size, const std::nothrow_t& tag) noexcept {
  return ::operator new(size, tag);
}

void operator delete(void* ptr) noexcept { std::free(ptr); }
void operator delete[](void* ptr) noexcept { std::free(ptr); }
void operator delete(void* ptr, std::size_t) noexcept { std::free(ptr); }
void operator delete[](void* ptr, std::size_t) noexcept { std::free(ptr); }
void operator delete(void* ptr, const std::nothrow_t&) noexcept {
  std::free(ptr);
}
void operator delete[](void* ptr, const std::nothrow_t&) noexcept {
  std::free(ptr);
}

namespace agentloc::net {
namespace {

TEST(LocateClientAlloc, UpdateFramesIntoAnOpenBatchDoNotAllocate) {
  if (!SocketTransport::sockets_available()) {
    GTEST_SKIP() << "sandbox cannot create sockets";
  }
  SocketAddress address;
  address.kind = SocketAddress::Kind::kUnix;
  address.path = "/tmp/agentloc-ca-" + std::to_string(::getpid()) + ".sock";
  LocateServer server(LocateServer::Config{/*workers=*/1, /*partitions=*/4});
  std::string error;
  ASSERT_TRUE(server.start(address, &error)) << error;
  LocateClient client;
  ASSERT_TRUE(client.connect(address, &error)) << error;

  // The first frame opens the peer's batch; 256 more (about 20 bytes each)
  // stay within it, so nothing seals or flushes while they are counted.
  ASSERT_TRUE(client.send_update(1, /*node=*/0, /*seq=*/1));
  constexpr std::uint64_t kFrames = 256;
  std::uint64_t sent = 0;
  const std::uint64_t before = t_allocations;
  for (std::uint64_t i = 0; i < kFrames; ++i) {
    sent += client.send_update(1000 + i, static_cast<NodeId>(i % 16), 1)
                ? 1
                : 0;
  }
  const std::uint64_t allocations = t_allocations - before;
  EXPECT_EQ(sent, kFrames);
  EXPECT_EQ(allocations, 0u);

  // The frames were real: the ping fence drains them to the server.
  ASSERT_TRUE(client.ping());
  server.stop();
  EXPECT_EQ(server.stats()[0].counters.updates, kFrames + 1);
  EXPECT_EQ(server.stats()[0].counters.updates_applied, kFrames + 1);
}

}  // namespace
}  // namespace agentloc::net
