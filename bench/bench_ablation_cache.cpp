// Ablation A11: the per-node location cache and optimistic locate
// (DESIGN.md §12).
//
// The cache exists for skewed query popularity: under a Zipf workload the
// head target's locates all funnel to one IAgent, which cannot split below a
// single id — a serial bottleneck no rehash relieves. With caching on, each
// querying node remembers the binding after its first authoritative answer
// and verifies follow-ups at the cached node directly, so the hot traffic
// spreads across the target-hosting nodes instead of queueing at the one
// responsible IAgent. This bench sweeps target_skew × cache capacity with
// identical seeds per cell (capacity 0 = cache off) and reports the two
// headline effects: IAgent locate RPCs absorbed and end-to-end locate
// throughput gained.
//
// Flags: --skew=0,0.5,0.9,0.95 --capacity=0,16,64,1024 --tagents=128
//        --nodes=16 --queriers=16 --quota=400 --think-ms=1 --residence-ms=4000
//        --ttl-ms=2000 --service-us=4000 --singleflight=0 --seed=1
//        --json-out=BENCH_ablation_cache.json

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "core/hash_scheme.hpp"
#include "platform/agent_system.hpp"
#include "util/bench_report.hpp"
#include "util/flags.hpp"
#include "workload/querier.hpp"
#include "workload/report.hpp"
#include "workload/tagent.hpp"

using namespace agentloc;

namespace {

struct Params {
  std::size_t nodes = 16;
  std::size_t tagents = 128;
  std::size_t queriers = 16;
  std::size_t quota = 400;
  double think_ms = 1.0;
  double residence_ms = 4000.0;
  double ttl_ms = 2000.0;
  double service_us = 4000.0;
  bool singleflight = false;
  std::uint64_t seed = 1;
};

struct Outcome {
  double elapsed_s = 0;
  double throughput = 0;  ///< completed locates per sim second
  double location_ms = 0;
  double location_p95_ms = 0;
  std::uint64_t queries = 0;
  std::uint64_t failed = 0;
  std::uint64_t wrong_location = 0;
  core::SchemeStats scheme;
};

Outcome run(double skew, std::size_t capacity, const Params& params) {
  util::Rng master(params.seed);
  sim::Simulator simulator;
  net::Network network(simulator, params.nodes, net::make_default_lan_model(),
                       master.fork());
  platform::AgentSystem::Config platform_config;
  platform_config.service_time = sim::SimTime::micros(
      static_cast<std::uint64_t>(params.service_us));
  platform::AgentSystem system(simulator, network, platform_config);

  core::MechanismConfig mechanism;
  mechanism.location_cache.capacity = capacity;
  mechanism.location_cache.ttl =
      sim::SimTime::micros(static_cast<std::uint64_t>(params.ttl_ms * 1000));
  mechanism.locate_singleflight = params.singleflight;
  core::HashLocationScheme scheme(system, mechanism);

  std::vector<platform::AgentId> targets;
  for (std::size_t i = 0; i < params.tagents; ++i) {
    workload::TAgent::Config config;
    config.residence = sim::SimTime::micros(
        static_cast<std::uint64_t>(params.residence_ms * 1000));
    config.seed = master.next();
    auto& agent = system.create<workload::TAgent>(
        static_cast<net::NodeId>(i % params.nodes), scheme, config);
    targets.push_back(agent.id());
  }

  std::size_t completed = 0;
  std::vector<workload::QuerierAgent*> queriers;
  for (std::size_t q = 0; q < params.queriers; ++q) {
    workload::QuerierAgent::Config config;
    config.quota = params.quota;
    config.think = sim::SimTime::micros(
        static_cast<std::uint64_t>(params.think_ms * 1000));
    config.target_skew = skew;
    config.seed = master.next();
    queriers.push_back(&system.create<workload::QuerierAgent>(
        static_cast<net::NodeId>(q % params.nodes), scheme, config, targets,
        [&completed] { ++completed; }));
  }

  // Run until every querier drains its quota: elapsed sim time IS the
  // throughput metric (closed loop, fixed total work).
  const sim::SimTime deadline = sim::SimTime::seconds(3600);
  while (completed < queriers.size() && simulator.now() < deadline) {
    simulator.run_until(simulator.now() + sim::SimTime::millis(10));
  }

  Outcome outcome;
  outcome.elapsed_s = simulator.now().as_seconds();
  util::Summary latencies;
  for (const auto* querier : queriers) {
    latencies.merge(querier->latencies_ms());
    outcome.failed += querier->failed();
    outcome.wrong_location += querier->wrong_location();
  }
  outcome.queries = latencies.count();
  outcome.location_ms = latencies.mean();
  outcome.location_p95_ms =
      latencies.empty() ? 0.0 : latencies.percentile(95);
  outcome.throughput =
      outcome.elapsed_s > 0
          ? static_cast<double>(outcome.queries) / outcome.elapsed_s
          : 0.0;
  outcome.scheme = scheme.stats();
  return outcome;
}

std::vector<double> parse_double_list(const std::string& text,
                                      std::vector<double> fallback) {
  if (text.empty()) return fallback;
  std::vector<double> values;
  std::size_t start = 0;
  while (start <= text.size()) {
    const std::size_t comma = text.find(',', start);
    const std::string item =
        text.substr(start, comma == std::string::npos ? comma : comma - start);
    if (!item.empty()) values.push_back(std::strtod(item.c_str(), nullptr));
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  return values.empty() ? fallback : values;
}

std::string fmt_skew(double skew) {
  char buffer[32];
  std::snprintf(buffer, sizeof buffer, "%g", skew);
  return buffer;
}

}  // namespace

int main(int argc, char** argv) {
  util::Flags flags(argc, argv);
  const auto skews =
      parse_double_list(flags.get_string("skew", ""), {0.0, 0.5, 0.9, 0.95});
  const auto capacities = flags.get_int_list("capacity", {0, 16, 64, 1024});
  Params params;
  params.nodes = static_cast<std::size_t>(flags.get_int("nodes", 16));
  params.tagents = static_cast<std::size_t>(flags.get_int("tagents", 128));
  params.queriers = static_cast<std::size_t>(flags.get_int("queriers", 16));
  params.quota = static_cast<std::size_t>(flags.get_int("quota", 400));
  params.think_ms = flags.get_double("think-ms", 1.0);
  params.residence_ms = flags.get_double("residence-ms", 4000.0);
  params.ttl_ms = flags.get_double("ttl-ms", 2000.0);
  params.service_us = flags.get_double("service-us", 4000.0);
  params.singleflight = flags.get_bool("singleflight", false);
  params.seed = static_cast<std::uint64_t>(flags.get_int("seed", 1));
  const std::string json_out =
      flags.get_string("json-out", "BENCH_ablation_cache.json");

  std::printf(
      "Ablation A11: location cache & optimistic locate (capacity 0 = off)\n"
      "(%zu TAgents on %zu nodes, %zu queriers x %zu locates, %.0f ms dwell, "
      "%.0f ms TTL, %.0f us service; same seeds per cell)\n\n",
      params.tagents, params.nodes, params.queriers, params.quota,
      params.residence_ms, params.ttl_ms, params.service_us);

  workload::Table table({"skew", "capacity", "locate RPCs", "rpc drop %",
                         "optimistic", "hit %", "stale", "evicted",
                         "locates/s", "speedup", "location ms", "p95 ms",
                         "failed"});
  util::BenchReport report("ablation_cache");

  for (const double skew : skews) {
    Outcome baseline;
    bool have_baseline = false;
    for (const std::int64_t capacity : capacities) {
      const Outcome outcome =
          run(skew, static_cast<std::size_t>(capacity), params);
      if (capacity == 0) {
        baseline = outcome;
        have_baseline = true;
      }
      const double rpc_drop_pct =
          have_baseline && baseline.scheme.locate_rpcs > 0
              ? 100.0 *
                    (static_cast<double>(baseline.scheme.locate_rpcs) -
                     static_cast<double>(outcome.scheme.locate_rpcs)) /
                    static_cast<double>(baseline.scheme.locate_rpcs)
              : 0.0;
      const double speedup = have_baseline && baseline.throughput > 0
                                 ? outcome.throughput / baseline.throughput
                                 : 1.0;
      const double lookups = static_cast<double>(outcome.scheme.cache_hits +
                                                 outcome.scheme.cache_misses);
      const double hit_pct =
          lookups > 0
              ? 100.0 * static_cast<double>(outcome.scheme.cache_hits) / lookups
              : 0.0;
      table.add_row(
          {fmt_skew(skew), std::to_string(capacity),
           workload::fmt_count(outcome.scheme.locate_rpcs),
           capacity == 0 ? "-" : workload::fmt(rpc_drop_pct),
           workload::fmt_count(outcome.scheme.optimistic_locates),
           capacity == 0 ? "-" : workload::fmt(hit_pct),
           workload::fmt_count(outcome.scheme.cache_stale_hits),
           workload::fmt_count(outcome.scheme.cache_evictions),
           workload::fmt(outcome.throughput),
           capacity == 0 ? "1.00" : workload::fmt(speedup),
           workload::fmt(outcome.location_ms),
           workload::fmt(outcome.location_p95_ms),
           workload::fmt_count(outcome.failed)});
      report.add_row()
          .set("name",
               "cache_skew" + fmt_skew(skew) + "_cap" + std::to_string(capacity))
          .set("target_skew", skew)
          .set("capacity", capacity)
          .set("items_per_second", outcome.throughput)
          .set("speedup_vs_off", speedup)
          .set("locate_rpcs", outcome.scheme.locate_rpcs)
          .set("locate_rpc_drop_pct", rpc_drop_pct)
          .set("optimistic_locates", outcome.scheme.optimistic_locates)
          .set("locates_coalesced", outcome.scheme.locates_coalesced)
          .set("cache_hits", outcome.scheme.cache_hits)
          .set("cache_misses", outcome.scheme.cache_misses)
          .set("cache_hit_pct", hit_pct)
          .set("cache_stale_hits", outcome.scheme.cache_stale_hits)
          .set("cache_evictions", outcome.scheme.cache_evictions)
          .set("cache_invalidations", outcome.scheme.cache_invalidations)
          .set("location_ms_mean", outcome.location_ms)
          .set("location_ms_p95", outcome.location_p95_ms)
          .set("queries", outcome.queries)
          .set("failed", outcome.failed)
          .set("wrong_location", outcome.wrong_location)
          .set("elapsed_s", outcome.elapsed_s);
      std::fflush(stdout);
    }
  }

  std::printf("%s\n", table.str().c_str());
  std::printf(
      "Reading: the win grows with skew — as the Zipf head sharpens, repeat "
      "locates\nverify at the cached node and skip the one IAgent every hot "
      "query would\notherwise queue at; at uniform skew the cache only saves "
      "what the TTL window\nallows. CLOCK keeps the head resident even at "
      "small capacities (capacity 16\nrecovers most of the skewed win); stale "
      "hits stay cheap because the probe\nfalls back to the authority within "
      "the same attempt budget.\n");

  report.meta()
      .set("nodes", static_cast<std::uint64_t>(params.nodes))
      .set("tagents", static_cast<std::uint64_t>(params.tagents))
      .set("queriers", static_cast<std::uint64_t>(params.queriers))
      .set("quota", static_cast<std::uint64_t>(params.quota))
      .set("think_ms", params.think_ms)
      .set("residence_ms", params.residence_ms)
      .set("ttl_ms", params.ttl_ms)
      .set("service_us", params.service_us)
      .set("singleflight", static_cast<std::uint64_t>(params.singleflight))
      .set("seed", params.seed);
  const std::string written = report.write(json_out);
  if (written.empty()) {
    std::fprintf(stderr, "failed to write %s\n", json_out.c_str());
    return 1;
  }
  std::printf("wrote %s\n", written.c_str());
  return 0;
}
