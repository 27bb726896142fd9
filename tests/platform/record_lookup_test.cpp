// Record lookup against a reference model: seeded scripts create, migrate,
// dispose (some agents dispose themselves from their own callbacks) and
// send, with mixed and with sequential ids. Crowds of creates and culls of
// disposals take the population across several record chunks and leave
// vacant slots in them. After every op and again after the step's events,
// each lookup the platform offers must agree with a std::unordered_map of
// what the script did, ids the system never handed out (or took back) must
// never be found, and no create may take a disposed agent's slot. Then an
// agent that creates whole chunks of agents from inside its own message
// handler must go on serving its queued inbox. Last, an agent's own
// `node()` must read what the platform's record holds, through install,
// migration, arrival and disposal.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <optional>
#include <tuple>
#include <unordered_map>
#include <vector>

#include "net/network.hpp"
#include "platform/agent_system.hpp"
#include "sim/simulator.hpp"
#include "util/rng.hpp"

namespace agentloc::platform {
namespace {

constexpr net::NodeId kNodes = 6;
// One hop takes 1 ms, and a step runs 3 ms: a message, the bounce it may
// cause and every migration all land inside the step that started them.
constexpr sim::SimTime kHop = sim::SimTime::millis(1);
constexpr sim::SimTime kStep = sim::SimTime::millis(3);
// Slots per record chunk in `AgentSystem`, and bytes per slot.
constexpr std::size_t kChunkSlots = 128;
constexpr std::size_t kSlotBytes = 32;

struct Ping {
  static constexpr std::size_t kWireBytes = 24;
};

/// Disposes itself from `on_start` or `on_arrival` when asked to.
class Scripted : public Agent {
 public:
  enum class Fate { kLive, kDieOnStart, kDieOnArrival };
  explicit Scripted(Fate fate) : fate_(fate) {}

  void on_start() override {
    if (fate_ == Fate::kDieOnStart) system().dispose(id());
  }
  void on_arrival(net::NodeId) override {
    if (fate_ == Fate::kDieOnArrival) system().dispose(id());
  }

 private:
  Fate fate_;
};

/// Creates `per_message` agents at its own node from each message it serves,
/// and notes whether the platform's record storage grew meanwhile.
class Spawner : public Agent {
 public:
  explicit Spawner(std::size_t per_message) : per_message_(per_message) {}

  void on_message(const Message&) override {
    const std::size_t before = system().memory_breakdown().agent_records;
    for (std::size_t i = 0; i < per_message_; ++i) {
      spawned.push_back(
          &system().create<Scripted>(node(), Scripted::Fate::kLive));
    }
    if (system().memory_breakdown().agent_records > before) ++grew;
    ++served;
  }

  std::vector<Agent*> spawned;
  int served = 0;
  int grew = 0;

 private:
  std::size_t per_message_;
};

/// What the script knows of one live agent.
struct Expected {
  Agent* agent = nullptr;
  net::NodeId node = net::kNoNode;  // destination while in transit
  bool in_transit = false;
  std::size_t inbox = 0;
  Scripted::Fate fate = Scripted::Fate::kLive;
};

class RecordLookup
    : public ::testing::TestWithParam<std::tuple<std::uint64_t, bool>> {
 protected:
  RecordLookup()
      : network_(simulator_, kNodes,
                 std::make_unique<net::FixedLatencyModel>(kHop),
                 util::Rng(std::get<0>(GetParam()))),
        system_(simulator_, network_, make_config()),
        rng_(std::get<0>(GetParam()) * 31 + 7) {}

  static AgentSystem::Config make_config() {
    AgentSystem::Config config;
    // Longer than any script: a delivered message stays queued, so the
    // inbox depth is exactly what the script delivered.
    config.service_time = sim::SimTime::seconds(3600);
    config.mixed_ids = std::get<1>(GetParam());
    return config;
  }

  AgentId create(net::NodeId node, Scripted::Fate fate) {
    return add_to_model(system_.create<Scripted>(node, fate), fate);
  }

  AgentId add_to_model(Agent& agent, Scripted::Fate fate) {
    ++allocated_;
    // The k-th create takes the k-th ordinal, and with it slot k − 1, never
    // a slot a disposal vacated.
    EXPECT_EQ(agent.id(), id_at(allocated_, std::get<1>(GetParam())));
    model_[agent.id()] = Expected{&agent, agent.node(), false, 0, fate};
    peak_live_ = std::max(peak_live_, model_.size());
    return agent.id();
  }

  Scripted::Fate draw_fate() {
    const auto fate_roll = rng_.next_below(10);
    return fate_roll == 0   ? Scripted::Fate::kDieOnStart
           : fate_roll == 1 ? Scripted::Fate::kDieOnArrival
                            : Scripted::Fate::kLive;
  }

  net::NodeId draw_node() {
    return static_cast<net::NodeId>(rng_.next_below(kNodes));
  }

  void dispose(AgentId victim) {
    bounce_inbox_of(model_.at(victim));
    system_.dispose(victim);
    model_.erase(victim);
    disposed_.push_back(victim);
  }

  /// The id `allocate_id` hands out `ordinal`-th, in either id mode.
  static AgentId id_at(std::uint64_t ordinal, bool mixed) {
    return mixed ? util::mix64(ordinal) : ordinal;
  }

  void expect_absent(AgentId id) {
    EXPECT_FALSE(system_.exists(id)) << id;
    EXPECT_EQ(system_.find(id), nullptr) << id;
    EXPECT_EQ(system_.node_of(id), std::nullopt) << id;
    EXPECT_FALSE(system_.in_transit(id)) << id;
    EXPECT_EQ(system_.inbox_depth(id), 0u) << id;
    for (net::NodeId node = 0; node < kNodes; ++node) {
      EXPECT_FALSE(system_.hosts(node, id)) << id;
    }
  }

  void check(int step) {
    SCOPED_TRACE(::testing::Message() << "step " << step);
    EXPECT_EQ(system_.live_agent_count(), model_.size());
    EXPECT_EQ(system_.live_agent_count(), allocated_ - disposed_.size());
    // Every id ever handed out keeps its own slot, so the record chunks
    // cover all of them however many were disposed.
    const std::size_t chunks = (allocated_ + kChunkSlots - 1) / kChunkSlots;
    EXPECT_GE(system_.memory_breakdown().agent_records,
              chunks * kChunkSlots * kSlotBytes);
    for (const auto& [id, expected] : model_) {
      EXPECT_TRUE(system_.exists(id)) << id;
      EXPECT_EQ(system_.find(id), expected.agent) << id;
      EXPECT_EQ(system_.in_transit(id), expected.in_transit) << id;
      EXPECT_EQ(system_.node_of(id),
                expected.in_transit ? std::nullopt
                                    : std::optional<net::NodeId>(
                                          expected.node))
          << id;
      EXPECT_EQ(system_.inbox_depth(id), expected.inbox) << id;
      for (net::NodeId node = 0; node < kNodes; ++node) {
        EXPECT_EQ(system_.hosts(node, id),
                  !expected.in_transit && node == expected.node)
            << id;
      }
    }
    for (const AgentId id : disposed_) expect_absent(id);

    const bool mixed = std::get<1>(GetParam());
    expect_absent(kNoAgent);
    expect_absent(~AgentId{0});
    expect_absent(id_at(allocated_ + 1, mixed));  // next, not yet handed out
    for (std::uint64_t ordinal = 1; ordinal <= allocated_; ++ordinal) {
      expect_absent(id_at(ordinal, !mixed));  // the other id mode's ids
    }
  }

  /// A queue bounces at once, and each message comes back to the source as
  /// a notice that lands by the end of the step.
  void bounce_inbox_of(Expected& expected) {
    landing_.insert(landing_.end(), expected.inbox, source_);
    expected.inbox = 0;
  }

  /// Run the step's events: queue what landed, and retire agents whose
  /// callbacks disposed them.
  void finish_step() {
    simulator_.run_until(simulator_.now() + kStep);
    for (const AgentId id : landing_) ++model_.at(id).inbox;
    landing_.clear();
    for (auto it = model_.begin(); it != model_.end();) {
      Expected& expected = it->second;
      const bool died =
          expected.fate == Scripted::Fate::kDieOnStart ||
          (expected.fate == Scripted::Fate::kDieOnArrival &&
           expected.in_transit);
      expected.in_transit = false;
      if (died) {
        disposed_.push_back(it->first);
        it = model_.erase(it);
      } else {
        ++it;
      }
    }
  }

  std::vector<AgentId> others_than_source() const {
    std::vector<AgentId> candidates;
    for (const auto& [id, expected] : model_) {
      if (id != source_) candidates.push_back(id);
    }
    return candidates;
  }

  AgentId pick_other_than_source() {
    const std::vector<AgentId> candidates = others_than_source();
    if (candidates.empty()) return kNoAgent;
    return candidates[rng_.next_below(candidates.size())];
  }

  sim::Simulator simulator_;
  net::Network network_;
  AgentSystem system_;
  util::Rng rng_;
  std::unordered_map<AgentId, Expected> model_;
  std::vector<AgentId> disposed_;
  /// Recipients of the messages in flight this step, one entry each.
  std::vector<AgentId> landing_;
  std::uint64_t allocated_ = 0;
  std::size_t peak_live_ = 0;
  AgentId source_ = kNoAgent;
};

TEST_P(RecordLookup, LookupsMatchReferenceModel) {
  // Every send comes from the source, which never moves, so each bounce
  // notice lands in its inbox.
  source_ = create(0, Scripted::Fate::kLive);
  simulator_.run_until(simulator_.now() + kStep);
  check(0);

  std::size_t created_after_disposal = 0;
  for (int step = 1; step <= 300; ++step) {
    const auto roll = rng_.next_below(100);
    const AgentId victim = pick_other_than_source();
    if (roll < 5) {
      // A crowd: up to two chunks' worth of creates in one step.
      const std::size_t crowd = 1 + rng_.next_below(2 * kChunkSlots);
      for (std::size_t i = 0; i < crowd; ++i) create(draw_node(), draw_fate());
      if (!disposed_.empty()) created_after_disposal += crowd;
    } else if (roll < 25 || victim == kNoAgent) {
      create(draw_node(), draw_fate());
    } else if (roll < 45) {
      Expected& expected = model_.at(victim);
      const net::NodeId node = draw_node();
      system_.migrate(victim, node);
      bounce_inbox_of(expected);
      expected.node = node;
      expected.in_transit = true;
    } else if (roll < 57) {
      dispose(victim);
    } else if (roll < 60) {
      // A cull: a random third of the population, from every chunk.
      std::vector<AgentId> candidates = others_than_source();
      for (std::size_t i = 0; i < candidates.size() / 3; ++i) {
        std::swap(candidates[i],
                  candidates[i + rng_.next_below(candidates.size() - i)]);
        dispose(candidates[i]);
      }
    } else if (roll < 90) {
      const AgentId target = rng_.chance(0.2) ? source_ : victim;
      system_.send(source_, AgentAddress{model_.at(target).node, target},
                   Ping{}, Ping::kWireBytes);
      landing_.push_back(target);
    } else {
      // A message to an id nobody holds bounces back to the source.
      const AgentId stranger =
          disposed_.empty() || rng_.chance(0.5)
              ? id_at(allocated_ + 1, std::get<1>(GetParam()))
              : disposed_[rng_.next_below(disposed_.size())];
      system_.send(source_,
                   AgentAddress{static_cast<net::NodeId>(
                                    rng_.next_below(kNodes)),
                                stranger},
                   Ping{}, Ping::kWireBytes);
      landing_.push_back(source_);
    }
    check(step);
    finish_step();
    check(step);
    if (::testing::Test::HasFailure()) return;
  }
  EXPECT_GT(peak_live_, 3 * kChunkSlots);
  EXPECT_GT(disposed_.size(), kChunkSlots);
  EXPECT_GT(created_after_disposal, kChunkSlots);

  // Each message the spawner serves creates over two chunks' worth of
  // agents, so its handler adds chunks while the platform holds its record;
  // the platform must then go on serving the spawner's queued inbox.
  constexpr int kSpawnMessages = 3;
  Spawner& spawner = system_.create<Spawner>(
      0, disposed_.size() + 2 * kChunkSlots + 1);
  add_to_model(spawner, Scripted::Fate::kLive);
  for (int i = 0; i < kSpawnMessages; ++i) {
    system_.send(source_, AgentAddress{0, spawner.id()}, Ping{},
                 Ping::kWireBytes);
    landing_.push_back(spawner.id());
  }
  finish_step();
  check(301);
  simulator_.run();  // serves every queued message, an hour apiece
  EXPECT_EQ(spawner.served, kSpawnMessages);
  EXPECT_EQ(spawner.grew, kSpawnMessages);
  for (auto& [id, expected] : model_) expected.inbox = 0;
  for (Agent* agent : spawner.spawned) {
    add_to_model(*agent, Scripted::Fate::kLive);
  }
  check(302);
}

INSTANTIATE_TEST_SUITE_P(
    SeedsAndIdModes, RecordLookup,
    ::testing::Combine(::testing::Values(1u, 2u, 3u, 4u),
                       ::testing::Bool()));

/// `agent.node()` is the platform's `node_of(agent.id())`, and reads
/// `kNoNode` exactly where that is nullopt: the schemes read the node from
/// the agent they are handed instead of looking it up.
void expect_node_mirror(const AgentSystem& system, const Agent& agent,
                        const char* where) {
  const std::optional<net::NodeId> truth = system.node_of(agent.id());
  EXPECT_EQ(agent.node(), truth.value_or(net::kNoNode))
      << where << ", agent " << agent.id();
  if (truth) {
    EXPECT_NE(*truth, net::kNoNode) << where;
  }
}

/// Checks the mirror from inside each of its lifecycle callbacks.
class Mirrored : public Agent {
 public:
  struct Checks {
    int starts = 0;
    int arrivals = 0;
    int disposals_in_transit = 0;
    int disposals_at_rest = 0;
  };
  explicit Mirrored(Checks& checks) : checks_(checks) {}

  void on_start() override {
    expect_node_mirror(system(), *this, "on_start");
    ++checks_.starts;
  }
  void on_arrival(net::NodeId) override {
    expect_node_mirror(system(), *this, "on_arrival");
    ++checks_.arrivals;
  }
  void on_dispose() override {
    expect_node_mirror(system(), *this, "on_dispose");
    ++(node() == net::kNoNode ? checks_.disposals_in_transit
                              : checks_.disposals_at_rest);
  }

 private:
  Checks& checks_;
};

class NodeMirror : public ::testing::TestWithParam<bool> {};

TEST_P(NodeMirror, AgentNodeIsTheRecordsNode) {
  sim::Simulator simulator;
  net::Network network(simulator, kNodes,
                       std::make_unique<net::FixedLatencyModel>(kHop),
                       util::Rng(9));
  AgentSystem::Config config;
  config.mixed_ids = GetParam();
  AgentSystem system(simulator, network, config);
  util::Rng rng(11);
  const auto draw_node = [&] {
    return static_cast<net::NodeId>(rng.next_below(kNodes));
  };
  const auto expect_all = [&](const std::vector<Mirrored*>& agents,
                              const char* where) {
    for (const Mirrored* agent : agents) {
      expect_node_mirror(system, *agent, where);
    }
  };

  Mirrored::Checks checks;
  std::vector<Mirrored*> agents;
  for (std::size_t i = 0; i < 3 * kChunkSlots; ++i) {
    agents.push_back(&system.create<Mirrored>(draw_node(), checks));
    expect_node_mirror(system, *agents.back(), "install");
  }
  simulator.run();
  for (int round = 0; round < 4; ++round) {
    for (Mirrored* agent : agents) {
      if (rng.chance(0.5)) system.migrate(agent->id(), draw_node());
    }
    expect_all(agents, "migrating");
    simulator.run();
    expect_all(agents, "arrived");
  }
  // Dispose every other agent in transit and the rest where they are.
  for (std::size_t i = 0; i < agents.size(); i += 2) {
    system.migrate(agents[i]->id(), draw_node());
  }
  expect_all(agents, "before disposal");
  for (Mirrored* agent : agents) system.dispose(agent->id());
  simulator.run();

  EXPECT_EQ(checks.starts, static_cast<int>(agents.size()));
  EXPECT_GT(checks.arrivals, static_cast<int>(agents.size()));
  EXPECT_EQ(checks.disposals_in_transit,
            static_cast<int>(agents.size() / 2));
  EXPECT_EQ(checks.disposals_at_rest, static_cast<int>(agents.size() / 2));
  EXPECT_EQ(system.live_agent_count(), 0u);
}

INSTANTIATE_TEST_SUITE_P(IdModes, NodeMirror, ::testing::Bool());

}  // namespace
}  // namespace agentloc::platform
