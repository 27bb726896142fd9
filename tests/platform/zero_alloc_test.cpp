// The messaging fast path must be allocation-free in steady state: once the
// event pool and the message slot pool (which also holds every queued inbox
// message) are warm, sending and dispatching fixed-size payloads may not
// touch the heap, even for a recipient that has never been sent anything.
// Neither may migrating an agent.
// This binary replaces the global allocation functions with counting
// versions and asserts a zero delta across each measured exchange.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <memory>
#include <new>
#include <string>

#include "platform/agent_system.hpp"
#include "sim/timer.hpp"

namespace {
std::atomic<std::uint64_t> g_allocations{0};
}  // namespace

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* ptr = std::malloc(size)) return ptr;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) { return ::operator new(size); }

void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
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

namespace agentloc::platform {
namespace {

struct Fixed {
  std::uint64_t a = 0;
  std::uint64_t b = 0;
};

class Sink : public Agent {
 public:
  void on_message(const Message& message) override {
    if (const auto* fixed = message.body_as<Fixed>()) consumed += fixed->a;
  }
  std::uint64_t consumed = 0;
};

TEST(ZeroAlloc, SteadyStateSendAndDispatchDoNotAllocate) {
  sim::Simulator sim;
  net::Network network(
      sim, 2, std::make_unique<net::FixedLatencyModel>(sim::SimTime::millis(1)),
      util::Rng(5));
  AgentSystem::Config config;
  config.service_time = sim::SimTime::micros(50);
  AgentSystem system(sim, network, config);

  Sink& sender = system.create<Sink>(0);
  Sink& sink = system.create<Sink>(1);
  sim.run();

  static_assert(util::PayloadBox::stored_inline<Fixed>());
  const auto burst = [&] {
    for (std::uint64_t i = 0; i < 64; ++i) {
      system.send(sender.id(), AgentAddress{1, sink.id()}, Fixed{i, i}, 64);
    }
    sim.run();
  };

  // Warm the event pool and the message slots to the burst's high-water
  // mark.
  burst();
  burst();

  const std::uint64_t processed_before = system.stats().messages_processed;
  const std::uint64_t allocations_before =
      g_allocations.load(std::memory_order_relaxed);
  burst();
  burst();
  const std::uint64_t allocation_delta =
      g_allocations.load(std::memory_order_relaxed) - allocations_before;
  const std::uint64_t processed_delta =
      system.stats().messages_processed - processed_before;

  EXPECT_EQ(processed_delta, 128u);  // the measured traffic really flowed
  EXPECT_EQ(allocation_delta, 0u);
}

TEST(ZeroAlloc, FirstMessageToFreshAgentDoesNotAllocate) {
  sim::Simulator sim;
  net::Network network(
      sim, 2, std::make_unique<net::FixedLatencyModel>(sim::SimTime::millis(1)),
      util::Rng(5));
  AgentSystem::Config config;
  config.service_time = sim::SimTime::micros(50);
  AgentSystem system(sim, network, config);

  Sink& sender = system.create<Sink>(0);
  Sink& warm = system.create<Sink>(1);
  sim.run();
  for (std::uint64_t i = 0; i < 4; ++i) {
    system.send(sender.id(), AgentAddress{1, warm.id()}, Fixed{i, i}, 64);
  }
  sim.run();

  // Installing an agent allocates; its first message must not.
  Sink& fresh = system.create<Sink>(1);
  sim.run();
  const std::uint64_t allocations_before =
      g_allocations.load(std::memory_order_relaxed);
  system.send(sender.id(), AgentAddress{1, fresh.id()}, Fixed{7, 7}, 64);
  sim.run();
  const std::uint64_t allocation_delta =
      g_allocations.load(std::memory_order_relaxed) - allocations_before;

  EXPECT_EQ(fresh.consumed, 7u);
  EXPECT_EQ(allocation_delta, 0u);
}

// A migration plans its transmission like a message and schedules a 24-byte
// arrival event, so moving an agent allocates nothing once the event pool is
// warm.
TEST(ZeroAlloc, MigrationDoesNotAllocate) {
  sim::Simulator sim;
  net::Network network(
      sim, 2, std::make_unique<net::FixedLatencyModel>(sim::SimTime::millis(1)),
      util::Rng(5));
  AgentSystem system(sim, network);

  Sink& mover = system.create<Sink>(0);
  sim.run();
  system.migrate(mover.id(), 1);  // warm the event pool
  sim.run();

  const std::uint64_t allocations_before =
      g_allocations.load(std::memory_order_relaxed);
  system.migrate(mover.id(), 0);
  sim.run();
  system.migrate(mover.id(), 1);
  sim.run();
  const std::uint64_t allocation_delta =
      g_allocations.load(std::memory_order_relaxed) - allocations_before;

  EXPECT_EQ(system.stats().migrations_completed, 3u);
  EXPECT_EQ(mover.node(), 1u);
  EXPECT_EQ(allocation_delta, 0u);
}

// The event record's inline handler holds 24 bytes, less than a
// `std::function`: the network parks its delivery thunk in a pooled slot and
// `sim::Timeout` keeps its callback as a member, so each schedules a closure
// of `this` and at most a slot index. A `std::function` in either closure
// would spill to the heap and allocate per event.
TEST(ZeroAlloc, NetworkSendAndTimeoutRearmDoNotAllocate) {
  sim::Simulator sim;
  net::Network network(
      sim, 2, std::make_unique<net::FixedLatencyModel>(sim::SimTime::millis(1)),
      util::Rng(5));
  sim::Timeout timeout(sim);
  std::uint64_t delivered = 0;
  std::uint64_t fired = 0;
  const auto round = [&] {
    for (int i = 0; i < 16; ++i) {
      network.send(0, 1, 64, [&delivered] { ++delivered; });
    }
    timeout.arm(sim::SimTime::millis(5), [&fired] { ++fired; });
    timeout.arm(sim::SimTime::millis(2), [&fired] { ++fired; });  // re-arm
    sim.run();
  };

  round();  // warm the event pool
  round();

  const std::uint64_t allocations_before =
      g_allocations.load(std::memory_order_relaxed);
  round();
  round();
  const std::uint64_t allocation_delta =
      g_allocations.load(std::memory_order_relaxed) - allocations_before;

  EXPECT_EQ(delivered, 64u);
  EXPECT_EQ(fired, 4u);
  EXPECT_EQ(allocation_delta, 0u);
}

}  // namespace
}  // namespace agentloc::platform
