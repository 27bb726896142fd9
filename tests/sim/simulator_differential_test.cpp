// Differential contract test of the event engine: seeded scripts drive
// `Simulator` and a reference model (a std::map ordered by (when, seq)) in
// lockstep, and both must produce the same trace — execution order, now(),
// pending(), pending(id), executed() and every cancel() result. The delay
// mix aims at the engine's internal edges: zero and sub-microsecond delays,
// 1 ms bucket edges (k ms ± 1 ns), RPC-timeout-sized delays, 4.096 s window
// edges, minutes, an hour, and times beyond the ~70 minute wheel horizon.

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <map>
#include <unordered_map>
#include <utility>
#include <vector>

#include "sim/simulator.hpp"
#include "util/rng.hpp"

namespace agentloc::sim {
namespace {

/// The engine contract, written the obvious way.
class ReferenceSimulator {
 public:
  SimTime now() const { return now_; }

  EventId schedule_at(SimTime when, std::function<void()> handler) {
    if (when < now_) when = now_;
    const EventId id = next_id_++;
    const Key key{when.as_nanos(), next_seq_++};
    queue_.emplace(key, Entry{id, std::move(handler)});
    index_.emplace(id, key);
    return id;
  }

  bool cancel(EventId id) {
    const auto found = index_.find(id);
    if (found == index_.end()) return false;
    queue_.erase(found->second);
    index_.erase(found);
    return true;
  }

  std::size_t run_until(SimTime deadline) {
    std::size_t count = 0;
    stop_requested_ = false;
    while (!stop_requested_ && !queue_.empty() &&
           queue_.begin()->first.first <= deadline.as_nanos()) {
      run_first();
      ++count;
    }
    if (!stop_requested_ && deadline != SimTime::infinity() &&
        deadline > now_) {
      now_ = deadline;
    }
    return count;
  }

  std::size_t run() { return run_until(SimTime::infinity()); }

  bool step() {
    if (queue_.empty()) return false;
    run_first();
    return true;
  }

  void request_stop() { stop_requested_ = true; }
  std::size_t pending() const { return queue_.size(); }
  bool pending(EventId id) const { return index_.count(id) != 0; }
  std::uint64_t executed() const { return executed_; }

 private:
  using Key = std::pair<std::int64_t, std::uint64_t>;  // (when, seq)
  struct Entry {
    EventId id;
    std::function<void()> handler;
  };

  void run_first() {
    auto first = queue_.begin();
    now_ = SimTime::nanos(first->first.first);
    std::function<void()> handler = std::move(first->second.handler);
    index_.erase(first->second.id);
    queue_.erase(first);
    ++executed_;
    handler();
  }

  SimTime now_ = SimTime::zero();
  EventId next_id_ = 1;
  std::uint64_t next_seq_ = 1;
  std::uint64_t executed_ = 0;
  bool stop_requested_ = false;
  std::map<Key, Entry> queue_;
  std::unordered_map<EventId, Key> index_;
};

constexpr std::int64_t kMs = 1'000'000;
constexpr std::int64_t kWindow = 4096 * kMs;       // 4.096 s
constexpr std::int64_t kHorizon = 1024 * kWindow;  // ~70 min

/// One seeded script against one engine. Every choice comes from the
/// script's own Rng in execution order, so two engines that agree on order
/// consume identical streams, and the first disagreement shows in the trace.
template <typename Engine>
class Script {
 public:
  explicit Script(std::uint64_t seed) : rng_(seed) {}

  std::vector<std::int64_t> run() {
    const std::size_t burst_round = rng_.next_below(kRounds);
    for (std::size_t round = 0; round < kRounds; ++round) {
      if (round == burst_round) burst();
      const std::size_t arms = rng_.next_below(40);
      for (std::size_t i = 0; i < arms; ++i) schedule(pick_time());
      const std::size_t cancels = rng_.next_below(12);
      for (std::size_t i = 0; i < cancels; ++i) cancel_random();
      probe_random();
      advance();
    }
    // Drain; request_stop() inside handlers may end a run() early.
    while (engine_.pending() > 0) note(engine_.run());
    note(engine_.now().as_nanos());
    note(engine_.executed());
    return std::move(trace_);
  }

 private:
  static constexpr std::size_t kRounds = 80;
  static constexpr std::size_t kBurst = 100'000;

  template <typename T>
  void note(T value) {
    trace_.push_back(static_cast<std::int64_t>(value));
  }

  std::int64_t uniform(std::int64_t lo, std::int64_t hi) {
    return rng_.uniform_int(lo, hi);
  }

  /// An absolute time drawn from the delay mix.
  SimTime pick_time() {
    const std::int64_t now = engine_.now().as_nanos();
    switch (rng_.next_below(12)) {
      case 0:
        return SimTime::nanos(now);
      case 1:  // sub-microsecond
        return SimTime::nanos(now + uniform(1, 999));
      case 2:  // within a millisecond
        return SimTime::nanos(now + uniform(1'000, kMs - 1));
      case 3:  // a 1 ms bucket edge, ± 1 ns
        return SimTime::nanos((now / kMs + uniform(1, 8)) * kMs +
                              uniform(-1, 1));
      case 4:  // the RPC-timeout shape
        return SimTime::nanos(now + 2'000 * kMs + uniform(0, kMs));
      case 5:  // a 4.096 s window edge, ± 1 ns
        return SimTime::nanos((now / kWindow + uniform(1, 3)) * kWindow +
                              uniform(-1, 1));
      case 6:
        return SimTime::nanos(now + 60'000 * kMs + uniform(0, 1'000));
      case 7:
        return SimTime::nanos(now + 3'600'000 * kMs + uniform(0, 1'000));
      case 8:  // beyond the coarse horizon
        return SimTime::nanos(now + kHorizon * uniform(1, 3) +
                              uniform(0, 10'000 * kMs));
      case 9:  // the horizon's own edge, ± 1 ns
        return SimTime::nanos((now / kWindow + 1024 + uniform(0, 1)) *
                                  kWindow +
                              uniform(-1, 1));
      case 10:  // in the past: clamped to now
        return SimTime::nanos(now - uniform(0, kMs));
      default:
        return SimTime::nanos(now + uniform(0, 10 * kMs));
    }
  }

  std::size_t schedule(SimTime when) {
    const std::size_t token = ids_.size();
    ids_.push_back(engine_.schedule_at(when, [this, token] { fire(token); }));
    return token;
  }

  void cancel_random() {
    if (ids_.empty()) return;
    note(engine_.cancel(ids_[rng_.next_below(ids_.size())]));
  }

  void probe_random() {
    note(engine_.now().as_nanos());
    note(engine_.pending());
    note(engine_.executed());
    if (!ids_.empty()) {
      note(engine_.pending(ids_[rng_.next_below(ids_.size())]));
    }
  }

  /// The handler every scripted event runs.
  void fire(std::size_t token) {
    note(token);
    note(engine_.now().as_nanos());
    if (quiet_) {
      // Burst events log their order, and some cancel a random event: the
      // burst runs as one sorted bucket, so these hit it mid-run.
      if (token % 8 == 0) cancel_random();
      return;
    }
    note(engine_.pending());
    note(engine_.pending(ids_[token]));  // never pending while running
    const std::uint64_t roll = rng_.next_below(100);
    if (roll < 40 && children_left_ > 0) {
      --children_left_;
      schedule(pick_time());
    } else if (roll < 50 && children_left_ > 1) {
      // Same-instant children, the second cancelled by the first's handler
      // or by a later sibling at the same timestamp.
      children_left_ -= 2;
      schedule(engine_.now());
      same_instant_ = schedule(engine_.now());
    } else if (roll < 60 && same_instant_ < ids_.size()) {
      note(engine_.cancel(ids_[same_instant_]));
    } else if (roll < 75) {
      cancel_random();
    } else if (roll < 76) {
      engine_.request_stop();
    }
  }

  /// One same-instant burst, the shape of the t = 0 on_start burst, with a
  /// slice cancelled before it runs.
  void burst() {
    const SimTime at = pick_time();
    const std::size_t first = ids_.size();
    for (std::size_t i = 0; i < kBurst; ++i) schedule(at);
    for (std::size_t i = 0; i < kBurst / 16; ++i) {
      note(engine_.cancel(ids_[first + rng_.next_below(kBurst)]));
    }
    quiet_ = true;
    note(engine_.run_until(at));
    quiet_ = false;
    note(engine_.now().as_nanos());
  }

  void advance() {
    const std::uint64_t roll = rng_.next_below(100);
    if (roll < 50) {
      // A deadline from the same mix; far deadlines land in empty
      // stretches, and the next round schedules behind them.
      note(engine_.run_until(pick_time()));
      note(engine_.now().as_nanos());
    } else if (roll < 80) {
      const std::size_t steps = rng_.next_below(64);
      for (std::size_t i = 0; i < steps; ++i) note(engine_.step());
      note(engine_.now().as_nanos());
    } else if (roll < 95) {
      // Exactly at the next bucket or window edge.
      const std::int64_t now = engine_.now().as_nanos();
      const std::int64_t unit = roll < 88 ? kMs : kWindow;
      note(engine_.run_until(
          SimTime::nanos((now / unit + 1) * unit + uniform(-1, 0))));
      note(engine_.now().as_nanos());
    } else {
      note(engine_.run());
      note(engine_.now().as_nanos());
    }
    note(engine_.pending());
  }

  Engine engine_;
  util::Rng rng_;
  std::vector<EventId> ids_;
  std::vector<std::int64_t> trace_;
  std::size_t children_left_ = 6'000;
  std::size_t same_instant_ = SIZE_MAX;
  bool quiet_ = false;
};

TEST(SimulatorDifferential, MatchesReferenceModelOnSeededScripts) {
  for (std::uint64_t seed = 1; seed <= 32; ++seed) {
    const std::vector<std::int64_t> expected =
        Script<ReferenceSimulator>(seed).run();
    const std::vector<std::int64_t> actual = Script<Simulator>(seed).run();
    ASSERT_GT(expected.size(), 100'000u);
    std::size_t at = 0;
    while (at < expected.size() && at < actual.size() &&
           expected[at] == actual[at]) {
      ++at;
    }
    ASSERT_EQ(at, expected.size())
        << "seed " << seed << ": traces diverge at entry " << at << " of "
        << expected.size();
    ASSERT_EQ(actual.size(), expected.size()) << "seed " << seed;
  }
}

}  // namespace
}  // namespace agentloc::sim
