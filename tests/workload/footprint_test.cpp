// A million TAgents are live at sim-scale, so what each one costs on the
// heap sets the footprint (DESIGN.md §15). This binary replaces the global
// allocation functions with counting versions and pins that cost: one
// allocation of at most 104 bytes (a 112-byte chunk) per agent at creation,
// none when it starts, none per move, no private copy of the target list
// per querier, no private hash-tree copy per LHAgent, no id-keyed side
// table sized to the population (the platform's own record storage is its
// slot chunks and their table), and no copy of the agent records when the
// population outgrows its reserve.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <memory>
#include <new>
#include <string>
#include <vector>

#include "core/hash_scheme.hpp"
#include "core/iagent.hpp"
#include "core/scheme.hpp"
#include "net/network.hpp"
#include "platform/agent_system.hpp"
#include "sim/simulator.hpp"
#include "workload/querier.hpp"
#include "workload/tagent.hpp"

namespace {
std::atomic<std::uint64_t> g_allocations{0};
std::atomic<std::uint64_t> g_bytes{0};
std::atomic<std::size_t> g_largest{0};

void note_allocation(std::size_t size) noexcept {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  g_bytes.fetch_add(size, std::memory_order_relaxed);
  std::size_t largest = g_largest.load(std::memory_order_relaxed);
  while (size > largest &&
         !g_largest.compare_exchange_weak(largest, size,
                                          std::memory_order_relaxed)) {
  }
}
}  // namespace

void* operator new(std::size_t size) {
  note_allocation(size);
  if (void* ptr = std::malloc(size)) return ptr;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) { return ::operator new(size); }

void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  note_allocation(size);
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

namespace agentloc::workload {
namespace {

/// Allocations made since construction (or the last `reset`).
class AllocationWindow {
 public:
  AllocationWindow() { reset(); }
  void reset() {
    allocations_ = g_allocations.load(std::memory_order_relaxed);
    bytes_ = g_bytes.load(std::memory_order_relaxed);
    g_largest.store(0, std::memory_order_relaxed);
  }
  std::uint64_t allocations() const {
    return g_allocations.load(std::memory_order_relaxed) - allocations_;
  }
  std::uint64_t bytes() const {
    return g_bytes.load(std::memory_order_relaxed) - bytes_;
  }
  std::size_t largest() const {
    return g_largest.load(std::memory_order_relaxed);
  }

 private:
  std::uint64_t allocations_ = 0;
  std::uint64_t bytes_ = 0;
};

/// Accepts every call and keeps nothing, so the only allocations left are
/// the agents' own and the platform's.
class NullScheme : public core::LocationScheme {
 public:
  std::string name() const override { return "null"; }
  void register_agent(platform::Agent&,
                      std::function<void(bool)> done) override {
    done(true);
  }
  void update_location(platform::Agent&,
                       std::function<void(bool)> done) override {
    done(true);
  }
  void deregister_agent(platform::Agent&) override {}
  void locate(platform::Agent&, platform::AgentId,
              std::function<void(const core::LocateOutcome&)> done) override {
    done(core::LocateOutcome{});
  }
  std::size_t tracker_count() const override { return 0; }
};

/// An agent with no code of its own, to measure what a bare platform
/// migration allocates.
class Porter : public platform::Agent {};

constexpr std::size_t kAgents = 10'000;
constexpr std::size_t kNodes = 16;

class FootprintTest : public ::testing::Test {
 protected:
  FootprintTest()
      : network_(simulator_, kNodes,
                 std::make_unique<net::FixedLatencyModel>(
                     sim::SimTime::millis(1)),
                 util::Rng(5)),
        system_(simulator_, network_) {
    simulator_.reserve(4 * kAgents);
    system_.reserve(kAgents + 1);
  }

  /// A bare platform migration, whatever agent moves, allocates nothing:
  /// its arrival is an inline simulator event.
  void expect_migrations_allocate_nothing() {
    Porter& porter = system_.create<Porter>(0);
    simulator_.run();
    const AllocationWindow window;
    for (std::uint64_t hop = 0; hop < 8; ++hop) {
      system_.migrate(porter.id(), static_cast<net::NodeId>((hop + 1) % 2));
      simulator_.run();
    }
    EXPECT_EQ(window.allocations(), 0u);
  }

  /// Create the population with `create(node, config)`, start it, then let
  /// it register and roam, expecting `allocations_per_agent` of at most
  /// `largest` bytes at creation and nothing after it.
  template <typename Create>
  void expect_footprint(Create create, std::uint64_t allocations_per_agent,
                        std::size_t largest) {
    expect_migrations_allocate_nothing();
    std::vector<TAgent*> agents;
    agents.reserve(kAgents);
    TAgent::Config config;
    config.residence = sim::SimTime::millis(20);
    config.start_stagger = sim::SimTime::millis(50);

    AllocationWindow window;
    for (std::size_t i = 0; i < kAgents; ++i) {
      config.seed = 100 + i;
      agents.push_back(&create(static_cast<net::NodeId>(i % kNodes), config));
    }
    EXPECT_EQ(window.allocations(), allocations_per_agent * kAgents);
    EXPECT_LE(window.largest(), largest);

    window.reset();
    simulator_.run_until(simulator_.now());  // every on_start
    EXPECT_EQ(window.allocations(), 0u);

    // Past the admission spread and a few residences.
    const std::uint64_t migrations = system_.stats().migrations_started;
    window.reset();
    simulator_.run_until(simulator_.now() + sim::SimTime::millis(200));
    const std::uint64_t moved =
        system_.stats().migrations_started - migrations;
    EXPECT_EQ(std::count_if(agents.begin(), agents.end(),
                            [](const TAgent* agent) {
                              return agent->registered();
                            }),
              static_cast<std::ptrdiff_t>(kAgents));
    EXPECT_GT(moved, 2 * kAgents);
    EXPECT_EQ(window.allocations(), 0u);
  }

  sim::Simulator simulator_;
  net::Network network_;
  platform::AgentSystem system_;
  NullScheme scheme_;
};

TEST_F(FootprintTest, TAgentIsOneChunkAndAllocatesNothingOnceCreated) {
  expect_footprint(
      [&](net::NodeId node, const TAgent::Config& config) -> TAgent& {
        return system_.create<TAgent>(node, scheme_, config);
      },
      /*allocations_per_agent=*/1, /*largest=*/104);
}

TEST_F(FootprintTest, ClusteredTAgentAllocatesNothingPerMove) {
  // The agent and its copy of the pool's buffer, once at creation.
  const std::vector<net::NodeId> pool = {2, 3, 5, 7};
  expect_footprint(
      [&](net::NodeId node, const TAgent::Config& config) -> TAgent& {
        return system_.create<ClusteredTAgent>(node, scheme_, config, pool);
      },
      /*allocations_per_agent=*/2, /*largest=*/sizeof(ClusteredTAgent));
}

TEST_F(FootprintTest, QueriersShareOneTargetList) {
  constexpr std::size_t kTargets = 100'000;
  std::vector<platform::AgentId> ids(kTargets);
  for (std::size_t i = 0; i < kTargets; ++i) ids[i] = i + 1;
  const auto targets =
      std::make_shared<const std::vector<platform::AgentId>>(std::move(ids));

  const AllocationWindow window;
  for (std::uint64_t q = 0; q < 8; ++q) {
    QuerierAgent::Config config;
    config.seed = q + 1;
    system_.create<QuerierAgent>(static_cast<net::NodeId>(q), scheme_, config,
                                 targets);
  }
  EXPECT_LT(window.bytes(), kTargets * sizeof(platform::AgentId));
  EXPECT_EQ(targets.use_count(), 9);
}

TEST_F(FootprintTest, LHAgentsShareOneTreeSnapshot) {
  // sim-scale's shape: 1,024 nodes and a tree pre-split to 256 leaves.
  // Private copies would cost 1,024 trees of ~40 KiB each.
  constexpr std::size_t kSchemeNodes = 1024;
  sim::Simulator simulator;
  net::Network network(simulator, kSchemeNodes,
                       std::make_unique<net::FixedLatencyModel>(
                           sim::SimTime::millis(1)),
                       util::Rng(5));
  platform::AgentSystem system(simulator, network);
  core::MechanismConfig config;
  config.initial_iagents = 245;

  const AllocationWindow window;
  core::HashLocationScheme scheme(system, config);
  EXPECT_LT(window.bytes(), std::size_t{4} << 20);

  ASSERT_EQ(scheme.lhagent(0).known_iagents(), 256u);
  for (net::NodeId node = 1; node < kSchemeNodes; ++node) {
    EXPECT_EQ(&scheme.lhagent(node).tree(), &scheme.lhagent(0).tree());
  }
}

TEST_F(FootprintTest, ReservedPopulationHoldsNoIdKeyedTables) {
  // Reserving a population costs the record slab (a 32-byte slot per agent,
  // which holds the owner pointer) and the IAgents' location tables. What
  // is left (the chunk table and the scheme's fixed agents) stays within 8
  // bytes per agent. An id-keyed hash index or seq table would each add
  // 16-byte slots at no more than 3/4 load: over 21 bytes.
  constexpr std::size_t kPopulation = 100'000;
  constexpr std::size_t kSlabBytesPerAgent = 32;
  sim::Simulator simulator;
  simulator.reserve(4096);
  net::Network network(simulator, kNodes,
                       std::make_unique<net::FixedLatencyModel>(
                           sim::SimTime::millis(1)),
                       util::Rng(5));
  core::MechanismConfig mechanism;
  mechanism.initial_iagents = kPopulation / 4096 + 1;
  platform::AgentSystem::Config config;
  config.reserve_agents = kPopulation;

  const AllocationWindow window;
  platform::AgentSystem system(simulator, network, config);
  core::HashLocationScheme scheme(system, mechanism);
  scheme.reserve(kPopulation);
  const std::uint64_t allocated = window.bytes();

  std::size_t iagent_tables = 0;
  scheme.hagent().tree().for_each_leaf(
      [&](hashtree::IAgentId leaf, hashtree::NodeLocation) {
        const auto* iagent =
            dynamic_cast<const core::IAgent*>(system.find(leaf));
        ASSERT_NE(iagent, nullptr);
        iagent_tables += iagent->resident_bytes();
      });
  ASSERT_GE(allocated, kPopulation * kSlabBytesPerAgent + iagent_tables);
  const std::uint64_t rest =
      allocated - kPopulation * kSlabBytesPerAgent - iagent_tables;
  EXPECT_LE(rest, 8 * kPopulation)
      << static_cast<double>(rest) / kPopulation << " bytes per agent";
}

TEST_F(FootprintTest, GrowthPastTheReserveCopiesNoRecord) {
  // A system that outgrows its reserve of R agents adds record chunks one
  // at a time and never copies a record. Past the reserve, only the chunk
  // table (8 bytes per 128 agents) is reallocated; a contiguous array of
  // 32-byte slots would double to 2 R slots there, with the old R resident
  // beside the copy.
  constexpr std::size_t kReserved = 20'000;
  sim::Simulator simulator;
  net::Network network(simulator, kNodes,
                       std::make_unique<net::FixedLatencyModel>(
                           sim::SimTime::millis(1)),
                       util::Rng(5));
  platform::AgentSystem::Config config;
  config.reserve_agents = kReserved;
  platform::AgentSystem system(simulator, network, config);
  // Each on_start runs before the next create, so the event pool stays at
  // one record and only the platform's own storage can grow.
  const auto install = [&](std::size_t count) {
    for (std::size_t i = 0; i < count; ++i) {
      system.create<Porter>(static_cast<net::NodeId>(i % kNodes));
      simulator.run();
    }
  };
  install(kReserved);
  const std::size_t reserved_records = system.memory_breakdown().agent_records;

  const AllocationWindow window;
  install(kReserved / 2);
  EXPECT_EQ(system.live_agent_count(), kReserved + kReserved / 2);
  EXPECT_GT(system.memory_breakdown().agent_records, reserved_records);
  EXPECT_LE(window.largest(), 8 * kReserved);
}

TEST_F(FootprintTest, ReservedPopulationRecordsAreChunksAndTheirTable) {
  // The id allocated k-th lives in slot k - 1, so a reserved population's
  // record storage is its 4 KiB chunks of 128 32-byte slots and the table
  // of chunk pointers, with no array indexed by id (an ordinal -> slot
  // array would add 4 bytes per id).
  constexpr std::size_t kPopulation = 100'000;
  constexpr std::size_t kChunkSlots = 128;
  constexpr std::size_t kSlotBytes = 32;
  sim::Simulator simulator;
  net::Network network(simulator, kNodes,
                       std::make_unique<net::FixedLatencyModel>(
                           sim::SimTime::millis(1)),
                       util::Rng(5));
  platform::AgentSystem::Config config;
  config.reserve_agents = kPopulation;
  platform::AgentSystem system(simulator, network, config);
  for (std::size_t i = 0; i < kPopulation; ++i) {
    system.create<Porter>(static_cast<net::NodeId>(i % kNodes));
  }
  simulator.run();
  ASSERT_EQ(system.live_agent_count(), kPopulation);

  const std::size_t chunks = (kPopulation + kChunkSlots - 1) / kChunkSlots;
  EXPECT_EQ(system.memory_breakdown().agent_records,
            chunks * (kChunkSlots * kSlotBytes + sizeof(void*)));
}

}  // namespace
}  // namespace agentloc::workload
