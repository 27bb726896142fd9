#include "workload/experiment.hpp"

#include <gtest/gtest.h>

#include <set>

#include "core/hash_scheme.hpp"
#include "util/flags.hpp"

namespace agentloc::workload {
namespace {

ExperimentConfig tiny(const std::string& scheme) {
  ExperimentConfig config;
  config.scheme = scheme;
  config.nodes = 6;
  config.tagents = 8;
  config.total_queries = 60;
  config.queriers = 2;
  config.warmup = sim::SimTime::seconds(5);
  config.think = sim::SimTime::millis(20);
  config.seed = 11;
  return config;
}

TEST(ExperimentRunner, AllFourSchemesRun) {
  for (const char* scheme : {"hash", "centralized", "home", "forwarding"}) {
    const ExperimentResult result = run_experiment(tiny(scheme));
    EXPECT_EQ(result.queries_found + result.queries_failed, 60u)
        << scheme;
    EXPECT_GT(result.queries_found, 55u) << scheme;
    EXPECT_GT(result.tagent_moves, 0u) << scheme;
    EXPECT_GT(result.events_executed, 500u) << scheme;
  }
}

TEST(ExperimentRunner, SamplerFiresAtRequestedPeriod) {
  ExperimentConfig config = tiny("hash");
  config.sample_period = sim::SimTime::seconds(1);
  std::vector<double> sample_times;
  config.sampler = [&](sim::SimTime t, core::LocationScheme& scheme) {
    sample_times.push_back(t.as_seconds());
    EXPECT_GE(scheme.tracker_count(), 1u);
  };
  run_experiment(config);
  ASSERT_GE(sample_times.size(), 5u);
  EXPECT_NEAR(sample_times[1] - sample_times[0], 1.0, 1e-9);
}

TEST(ExperimentRunner, OnFinishSeesFinalScheme) {
  ExperimentConfig config = tiny("hash");
  bool inspected = false;
  config.on_finish = [&](core::LocationScheme& scheme) {
    inspected = true;
    EXPECT_EQ(scheme.name(), "hash");
    auto& hash = static_cast<core::HashLocationScheme&>(scheme);
    hash.hagent().tree().validate();
  };
  run_experiment(config);
  EXPECT_TRUE(inspected);
}

TEST(ExperimentRunner, SequentialIdsReachTheWorkload) {
  ExperimentConfig config = tiny("hash");
  config.mixed_ids = false;
  config.on_finish = [](core::LocationScheme& scheme) {
    auto& hash = static_cast<core::HashLocationScheme&>(scheme);
    // Sequential ids share their high-order bits; any split must therefore
    // have pushed discriminators deep into the id.
    for (const auto leaf : hash.hagent().tree().leaves()) {
      for (const auto& [position, bit] :
           core::predicate_of(hash.hagent().tree(), leaf).valid_bits) {
        EXPECT_GT(position, 40u);
      }
    }
  };
  const ExperimentResult result = run_experiment(config);
  EXPECT_GT(result.queries_found, 55u);
}

TEST(ExperimentRunner, RepeatsAccumulateSamplesAndCounters) {
  ExperimentConfig config = tiny("centralized");
  const ExperimentResult once = run_experiment(config);
  const ExperimentResult thrice = run_repeated(config, 3);
  EXPECT_EQ(thrice.location_ms.count(), 3 * once.location_ms.count());
  EXPECT_GT(thrice.scheme_stats.updates, 2 * once.scheme_stats.updates);
  EXPECT_GT(thrice.sim_seconds, 2.9 * once.sim_seconds);
  // Different seeds per repeat: the merged mean is not just the single run.
  EXPECT_GT(thrice.network_stats.messages_sent,
            once.network_stats.messages_sent);
}

TEST(ExperimentRunner, ZeroQueriersStillRuns) {
  ExperimentConfig config = tiny("hash");
  config.queriers = 0;
  config.total_queries = 0;
  config.measure_deadline = sim::SimTime::seconds(2);
  const ExperimentResult result = run_experiment(config);
  EXPECT_EQ(result.location_ms.count(), 0u);
  EXPECT_GT(result.tagent_moves, 0u);
}

TEST(ExperimentRunner, SkewedTargetsStillAllFound) {
  ExperimentConfig config = tiny("hash");
  config.target_skew = 1.5;
  const ExperimentResult result = run_experiment(config);
  EXPECT_EQ(result.queries_failed, 0u);
}

TEST(ReplicationSeed, DependsOnlyOnBaseSeedAndIndex) {
  // The fix over the old compounding derivation: replication r's seed no
  // longer depends on how many replications ran before it.
  EXPECT_EQ(replication_seed(42, 3), replication_seed(42, 3));
  EXPECT_NE(replication_seed(42, 0), replication_seed(42, 1));
  EXPECT_NE(replication_seed(42, 1), replication_seed(43, 1));
  // Distinct over a whole sweep's worth of replications.
  std::set<std::uint64_t> seen;
  for (std::size_t r = 0; r < 1000; ++r) seen.insert(replication_seed(7, r));
  EXPECT_EQ(seen.size(), 1000u);
}

TEST(ExperimentRunner, SequentialAndParallelBitIdentical) {
  ExperimentConfig config = tiny("hash");
  const ExperimentResult seq = run_parallel(config, 4, 1);
  const ExperimentResult par = run_parallel(config, 4, 4);
  // Per-query samples merge in replication order, so the whole result —
  // not just aggregates — must match bit for bit.
  EXPECT_EQ(seq.location_ms.samples(), par.location_ms.samples());
  EXPECT_EQ(seq.attempts.samples(), par.attempts.samples());
  EXPECT_EQ(seq.queries_found, par.queries_found);
  EXPECT_EQ(seq.queries_failed, par.queries_failed);
  EXPECT_EQ(seq.wrong_location, par.wrong_location);
  EXPECT_EQ(seq.tagent_moves, par.tagent_moves);
  EXPECT_EQ(seq.trackers_at_end, par.trackers_at_end);
  EXPECT_EQ(seq.events_executed, par.events_executed);
  EXPECT_EQ(seq.scheme_stats.updates, par.scheme_stats.updates);
  EXPECT_EQ(seq.scheme_stats.locates, par.scheme_stats.locates);
  EXPECT_EQ(seq.network_stats.messages_sent, par.network_stats.messages_sent);
  EXPECT_EQ(seq.network_stats.bytes_sent, par.network_stats.bytes_sent);
  EXPECT_EQ(seq.platform_stats.messages_processed,
            par.platform_stats.messages_processed);
  EXPECT_DOUBLE_EQ(seq.sim_seconds, par.sim_seconds);
}

TEST(ExperimentRunner, RunRepeatedMatchesExplicitSequential) {
  ExperimentConfig config = tiny("centralized");
  const ExperimentResult repeated = run_repeated(config, 3);
  const ExperimentResult sequential = run_parallel(config, 3, 1);
  EXPECT_EQ(repeated.location_ms.samples(),
            sequential.location_ms.samples());
  EXPECT_EQ(repeated.events_executed, sequential.events_executed);
  EXPECT_EQ(repeated.queries_found, sequential.queries_found);
}

// --- Batch-first at scale (DESIGN.md §15) ---------------------------------
// Above `batch_auto_threshold` the harness turns update batching on and
// pre-sizes every table. The auto path must be bit-identical to asking for
// batching explicitly, and semantically equivalent to the legacy unbatched
// path (same answers, no wrong locations) — reserves and batching change
// footprint and message count, never meaning.

ExperimentConfig scale_cell(std::uint64_t seed) {
  ExperimentConfig config;
  config.scheme = "hash";
  config.nodes = 8;
  config.tagents = 96;
  config.total_queries = 120;
  config.queriers = 4;
  config.residence = sim::SimTime::millis(300);
  config.warmup = sim::SimTime::seconds(5);
  config.think = sim::SimTime::millis(15);
  config.seed = seed;
  return config;
}

TEST(BatchFirstAtScale, AutoThresholdMatchesExplicitBatchingBitwise) {
  // Auto arm: population at the (lowered) threshold, nothing else set.
  ExperimentConfig auto_arm = scale_cell(29);
  auto_arm.mechanism.batch_auto_threshold = 96;

  // Explicit arm: auto-scaling disabled, batching requested by hand — the
  // pre-tentpole opt-in spelling. Reserves only change allocation, so the
  // trajectories must agree bit for bit.
  ExperimentConfig explicit_arm = scale_cell(29);
  explicit_arm.mechanism.batch_auto_threshold = 0;
  explicit_arm.mechanism.update_batching = true;

  const ExperimentResult by_threshold = run_experiment(auto_arm);
  const ExperimentResult by_request = run_experiment(explicit_arm);
  EXPECT_GT(by_threshold.platform_stats.batch_flushes, 0u);
  EXPECT_EQ(by_threshold.location_ms.samples(),
            by_request.location_ms.samples());
  EXPECT_EQ(by_threshold.events_executed, by_request.events_executed);
  EXPECT_EQ(by_threshold.queries_found, by_request.queries_found);
  EXPECT_EQ(by_threshold.wrong_location, by_request.wrong_location);
  EXPECT_EQ(by_threshold.network_stats.messages_sent,
            by_request.network_stats.messages_sent);
  EXPECT_EQ(by_threshold.platform_stats.batch_flushes,
            by_request.platform_stats.batch_flushes);
  EXPECT_EQ(by_threshold.platform_stats.messages_coalesced,
            by_request.platform_stats.messages_coalesced);
}

TEST(BatchFirstAtScale, BatchedAndUnbatchedSemanticallyEquivalent) {
  ExperimentConfig batched = scale_cell(31);
  batched.mechanism.batch_auto_threshold = 96;

  ExperimentConfig unbatched = scale_cell(31);
  unbatched.mechanism.batch_auto_threshold = 0;

  const ExperimentResult with_batching = run_experiment(batched);
  const ExperimentResult legacy = run_experiment(unbatched);

  // Batching coalesces wire messages; it must not change what locates find.
  EXPECT_GT(with_batching.platform_stats.messages_coalesced, 0u);
  EXPECT_EQ(legacy.platform_stats.batch_flushes, 0u);
  EXPECT_EQ(with_batching.queries_found + with_batching.queries_failed,
            legacy.queries_found + legacy.queries_failed);
  EXPECT_EQ(with_batching.queries_found, legacy.queries_found);
  // `wrong_location` counts retried stale hits — timing-dependent under this
  // churn, so the arms may differ, but every query must still resolve.
  EXPECT_EQ(with_batching.queries_failed, 0u);
  EXPECT_EQ(legacy.queries_failed, 0u);
  EXPECT_LT(with_batching.scheme_stats.updates,
            legacy.scheme_stats.updates + 1);  // batching never adds updates
  EXPECT_LE(with_batching.network_stats.messages_sent,
            legacy.network_stats.messages_sent);
}

TEST(BatchFirstAtScale, BelowThresholdLeavesLegacyPathUntouched) {
  // One agent below the threshold: the auto arm must be the legacy run,
  // bit for bit — this is what keeps the committed baselines valid.
  ExperimentConfig below = scale_cell(37);
  below.mechanism.batch_auto_threshold = 97;
  ExperimentConfig legacy = scale_cell(37);
  legacy.mechanism.batch_auto_threshold = 0;

  const ExperimentResult a = run_experiment(below);
  const ExperimentResult b = run_experiment(legacy);
  EXPECT_EQ(a.platform_stats.batch_flushes, 0u);
  EXPECT_EQ(a.location_ms.samples(), b.location_ms.samples());
  EXPECT_EQ(a.events_executed, b.events_executed);
  EXPECT_EQ(a.network_stats.messages_sent, b.network_stats.messages_sent);
}

TEST(MakeScheme, ConstructsEachKind) {
  sim::Simulator simulator;
  net::Network network(simulator, 4, net::make_default_lan_model(),
                       util::Rng(1));
  platform::AgentSystem system(simulator, network);
  core::MechanismConfig mechanism;
  EXPECT_EQ(make_scheme("hash", system, mechanism)->name(), "hash");
  EXPECT_EQ(make_scheme("centralized", system, mechanism)->name(),
            "centralized");
  EXPECT_EQ(make_scheme("home", system, mechanism)->name(), "home");
  EXPECT_EQ(make_scheme("forwarding", system, mechanism)->name(),
            "forwarding");
  EXPECT_THROW(make_scheme("bogus", system, mechanism),
               std::invalid_argument);
}

TEST(MakeScheme, SchemeListTakesEveryKindAndRefusesOthers) {
  sim::Simulator simulator;
  net::Network network(simulator, 4, net::make_default_lan_model(),
                       util::Rng(1));
  platform::AgentSystem system(simulator, network);
  core::MechanismConfig mechanism;
  const auto names = get_scheme_list(
      util::Flags({"--schemes=hash,centralized,home,forwarding"}), {});
  ASSERT_EQ(names.size(), 4u);
  for (const std::string& name : names) {
    EXPECT_EQ(make_scheme(name, system, mechanism)->name(), name);
  }
  EXPECT_EQ(get_scheme_list(util::Flags(std::vector<std::string>{}), {"hash"}),
            std::vector<std::string>{"hash"});
  EXPECT_THROW(get_scheme_list(util::Flags({"--schemes=hash,bogus"}), {}),
               std::invalid_argument);
}

}  // namespace
}  // namespace agentloc::workload
