// Microbenchmarks (google-benchmark) of the discrete-event engine itself:
// the schedule/execute/cancel costs underneath every simulated message.
// The headline `events_per_sec` meta field replays the exact mixed-churn
// workload used to judge engine PRs (self-rescheduling delivery chains with
// delivery-closure-sized captures plus armed-then-cancelled timeouts), so
// BENCH_sim_micro.json is directly comparable across engine generations.
// The BM_Hold rows time the event set at 64 to 1M pending timers.

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdint>

#include "bench_json.hpp"
#include "sim/simulator.hpp"
#include "util/bench_report.hpp"
#include "util/rng.hpp"

using namespace agentloc;
using sim::SimTime;

namespace {

// Numbers are only comparable between builds of the same kind.
#if defined(__OPTIMIZE__) && defined(NDEBUG)
constexpr const char* kBuild = "optimized, NDEBUG";
#elif defined(__OPTIMIZE__)
constexpr const char* kBuild = "optimized, asserts on";
#else
constexpr const char* kBuild = "unoptimized";
#endif

/// What every delivery chain of one mixed-churn run shares.
struct ChurnState {
  sim::Simulator* simulator;
  util::Rng* rng;
  std::uint64_t executed;
  std::uint64_t total;
};

/// Self-rescheduling event of 24 bytes, the largest handler a fault-free
/// experiment run schedules (a TAgent's `this` plus a member pointer, the
/// platform's arrival event) — the hot handler shape of a real run.
struct DeliveryChain {
  ChurnState* state;
  std::uint64_t payload[2];

  void operator()() const {
    if (++state->executed >= state->total) {
      state->simulator->request_stop();
      return;
    }
    state->simulator->schedule_after(
        SimTime::nanos(
            static_cast<std::int64_t>(state->rng->next_below(1000))),
        *this);
    // Every 4th event arms a 10ms timeout and cancels it — the RPC
    // timeout pattern that floods the heap with dead entries.
    if ((state->executed & 3) == 0) {
      const sim::EventId id =
          state->simulator->schedule_after(SimTime::millis(10), *this);
      state->simulator->cancel(id);
    }
  }
};
static_assert(sizeof(DeliveryChain) == 24 &&
                  sim::Simulator::Handler::stored_inline<DeliveryChain>(),
              "chain must fill the simulator's inline handler buffer");

/// One full mixed-churn run; returns events/second.
double mixed_churn_run(std::uint64_t total_events) {
  sim::Simulator simulator;
  simulator.reserve(1024);
  util::Rng rng(7);
  ChurnState state{&simulator, &rng, 0, total_events};
  const DeliveryChain chain{&state, {0, 0}};
  for (int i = 0; i < 64; ++i) {
    simulator.schedule_after(SimTime::nanos(i), chain);
  }
  const auto start = std::chrono::steady_clock::now();
  simulator.run();
  const auto stop = std::chrono::steady_clock::now();
  const double seconds = std::chrono::duration<double>(stop - start).count();
  return static_cast<double>(simulator.executed()) / seconds;
}

void BM_ScheduleExecute(benchmark::State& state) {
  // Warm pool: schedule a batch of near-future events and drain it.
  const auto batch = static_cast<std::size_t>(state.range(0));
  sim::Simulator simulator;
  simulator.reserve(batch);
  std::uint64_t sink = 0;
  for (auto _ : state) {
    for (std::size_t i = 0; i < batch; ++i) {
      simulator.schedule_after(SimTime::nanos(static_cast<std::int64_t>(i)),
                               [&sink] { ++sink; });
    }
    simulator.run();
  }
  benchmark::DoNotOptimize(sink);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(batch));
}
BENCHMARK(BM_ScheduleExecute)->Arg(64)->Arg(1024)->Arg(16384);

void BM_ScheduleCancel(benchmark::State& state) {
  // Arm-then-cancel, the timeout pattern: cancel must be O(1) and the heap
  // must compact away the corpses instead of sifting through them.
  const auto batch = static_cast<std::size_t>(state.range(0));
  sim::Simulator simulator;
  simulator.reserve(batch);
  std::vector<sim::EventId> ids(batch);
  for (auto _ : state) {
    for (std::size_t i = 0; i < batch; ++i) {
      ids[i] = simulator.schedule_after(SimTime::seconds(60), [] {});
    }
    for (const sim::EventId id : ids) simulator.cancel(id);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(batch));
}
BENCHMARK(BM_ScheduleCancel)->Arg(64)->Arg(4096);

/// One timer of the hold model: on firing it re-arms itself after an
/// exponential increment (mean 500 ms), the shape of a TAgent's residence
/// timer.
struct HoldTimer {
  sim::Simulator* simulator;
  util::Rng* rng;

  void operator()() const {
    simulator->schedule_after(SimTime::millis(rng->exponential(500.0)), *this);
  }
};

void BM_Hold(benchmark::State& state) {
  // The classic hold model: N pending timers, each pop pushes one back.
  // Every TAgent at sim-scale holds one, so the event set carries ~1M
  // entries there; the rows above stay at 16k pending or fewer. Timed per
  // pop+push after one full turnover, so the set is in its steady state.
  // The iteration count is fixed so the 1M-timer setup runs once.
  const auto timers = static_cast<std::size_t>(state.range(0));
  sim::Simulator simulator;
  simulator.reserve(timers);
  util::Rng rng(11);
  const HoldTimer timer{&simulator, &rng};
  for (std::size_t i = 0; i < timers; ++i) {
    simulator.schedule_after(SimTime::millis(rng.exponential(500.0)), timer);
  }
  for (std::size_t i = 0; i < timers; ++i) simulator.step();
  for (auto _ : state) benchmark::DoNotOptimize(simulator.step());
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_Hold)->Arg(64)->Arg(131072)->Arg(1048576)->Iterations(1 << 21);

void BM_MixedChurn(benchmark::State& state) {
  std::uint64_t events = 0;
  for (auto _ : state) {
    constexpr std::uint64_t kEvents = 200'000;
    benchmark::DoNotOptimize(mixed_churn_run(kEvents));
    events += kEvents;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(events));
}
BENCHMARK(BM_MixedChurn)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  util::BenchReport report("sim_micro");

  // Headline number first (before google-benchmark may filter/abort): the
  // canonical 4M-event mixed-churn run, best of 3.
  constexpr std::uint64_t kHeadlineEvents = 4'000'000;
  double best = 0.0;
  for (int round = 0; round < 3; ++round) {
    const double rate = mixed_churn_run(kHeadlineEvents);
    if (rate > best) best = rate;
    std::printf("mixed churn round %d: %.2fM events/s\n", round, rate / 1e6);
  }
  report.meta()
      .set("events_per_sec", best)
      .set("headline_events", kHeadlineEvents)
      .set("workload",
           "64 delivery chains, 1us mean spacing, 25% cancelled timeouts")
      .set("build", kBuild);

  return benchjson::run_and_write(argc, argv, report);
}
