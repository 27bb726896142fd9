// Record lookup against a reference model: seeded scripts create, migrate,
// dispose (some agents dispose themselves from their own callbacks) and
// send, with mixed and with sequential ids. After every op and again after
// the step's events, each lookup the platform offers must agree with a
// std::unordered_map of what the script did, and ids the system never
// handed out (or took back) must never be found.

#include <gtest/gtest.h>

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
    Agent& agent = system_.create<Scripted>(node, fate);
    ++allocated_;
    model_[agent.id()] = Expected{&agent, node, false, 0, fate};
    return agent.id();
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

  AgentId pick_other_than_source() {
    std::vector<AgentId> candidates;
    for (const auto& [id, expected] : model_) {
      if (id != source_) candidates.push_back(id);
    }
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
  AgentId source_ = kNoAgent;
};

TEST_P(RecordLookup, LookupsMatchReferenceModel) {
  // Every send comes from the source, which never moves, so each bounce
  // notice lands in its inbox.
  source_ = create(0, Scripted::Fate::kLive);
  simulator_.run_until(simulator_.now() + kStep);
  check(0);

  for (int step = 1; step <= 300; ++step) {
    const auto roll = rng_.next_below(100);
    const AgentId victim = pick_other_than_source();
    if (roll < 25 || victim == kNoAgent) {
      const auto node = static_cast<net::NodeId>(rng_.next_below(kNodes));
      const auto fate_roll = rng_.next_below(10);
      create(node, fate_roll == 0   ? Scripted::Fate::kDieOnStart
                   : fate_roll == 1 ? Scripted::Fate::kDieOnArrival
                                    : Scripted::Fate::kLive);
    } else if (roll < 45) {
      Expected& expected = model_.at(victim);
      const auto node = static_cast<net::NodeId>(rng_.next_below(kNodes));
      system_.migrate(victim, node);
      bounce_inbox_of(expected);
      expected.node = node;
      expected.in_transit = true;
    } else if (roll < 60) {
      bounce_inbox_of(model_.at(victim));
      system_.dispose(victim);
      model_.erase(victim);
      disposed_.push_back(victim);
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
  EXPECT_GT(disposed_.size(), 20u);
}

INSTANTIATE_TEST_SUITE_P(
    SeedsAndIdModes, RecordLookup,
    ::testing::Combine(::testing::Values(1u, 2u, 3u, 4u),
                       ::testing::Bool()));

}  // namespace
}  // namespace agentloc::platform
