// Ablation A1: sensitivity to the Tmax/Tmin thresholds.
//
// The paper fixes Tmax/Tmin ("we found that these values work well in our
// setting") and defers threshold heuristics to future work. This bench maps
// the trade-off: a low Tmax deploys many IAgents (flat latency, more rehash
// churn and hash-copy refreshes); a high Tmax approaches the centralized
// scheme's queueing behaviour.
//
// Flags: --tmax=10,25,50,100,400 --tagents=100 --queries=1500 --repeats=1
//        --json-out=BENCH_ablation_thresholds.json

#include <cstdio>
#include <stdexcept>
#include <string>

#include "util/bench_report.hpp"
#include "util/flags.hpp"
#include "workload/experiment.hpp"
#include "workload/report.hpp"

using namespace agentloc;
using workload::ExperimentConfig;
using workload::ExperimentResult;

int main(int argc, char** argv) {
  const util::Flags flags(argc, argv);
  std::vector<std::int64_t> tmax_values;
  std::size_t tagents = 0;
  std::size_t queries = 0;
  std::size_t repeats = 0;
  std::string json_out;
  try {
    tmax_values = flags.get_int_list("tmax", {10, 25, 50, 100, 400});
    tagents = static_cast<std::size_t>(flags.get_int("tagents", 100));
    queries = static_cast<std::size_t>(flags.get_int("queries", 1500));
    repeats = static_cast<std::size_t>(flags.get_int("repeats", 1));
    json_out = flags.get_string("json-out", "BENCH_ablation_thresholds.json");
    flags.fail_on_unknown();
  } catch (const std::invalid_argument& error) {
    std::fprintf(stderr, "bench_ablation_thresholds: %s\n", error.what());
    return 2;
  }

  std::printf(
      "Ablation A1: Tmax/Tmin sensitivity (tagents=%zu, residence=500ms, "
      "Tmin=Tmax/10)\n\n",
      tagents);

  workload::Table table({"Tmax", "Tmin", "location ms", "p95 ms", "IAgents",
                         "splits+merges", "stale retries", "refresh pulls"});
  util::BenchReport report("ablation_thresholds");

  for (const std::int64_t tmax : tmax_values) {
    ExperimentConfig config;
    config.scheme = "hash";
    config.tagents = tagents;
    config.total_queries = queries;
    config.mechanism.t_max = static_cast<double>(tmax);
    config.mechanism.t_min = static_cast<double>(tmax) / 10.0;
    const ExperimentResult result = workload::run_repeated(config, repeats);

    table.add_row(
        {std::to_string(tmax), workload::fmt(config.mechanism.t_min, 1),
         workload::fmt(result.location_ms.mean()),
         workload::fmt(result.location_ms.percentile(95)),
         std::to_string(result.trackers_at_end),
         workload::fmt_count(result.scheme_stats.stale_retries +
                             result.scheme_stats.delivery_retries),
         workload::fmt_count(result.scheme_stats.stale_retries),
         workload::fmt_count(result.scheme_stats.refreshes_triggered)});
    report.add_row()
        .set("tmax", tmax)
        .set("tmin", config.mechanism.t_min)
        .set("trackers", static_cast<std::uint64_t>(result.trackers_at_end))
        .set("stale_retries", result.scheme_stats.stale_retries)
        .set("delivery_retries", result.scheme_stats.delivery_retries)
        .set("refreshes", result.scheme_stats.refreshes_triggered)
        .add_summary("location_ms", result.location_ms);
    std::fflush(stdout);
  }

  std::printf("%s\n", table.str().c_str());
  std::printf(
      "Reading: lower Tmax => more IAgents and more rehash-driven staleness "
      "traffic;\nhigher Tmax => fewer IAgents and growing queueing delay. "
      "The paper's 50/5\nsits where location time is flat at modest "
      "IAgent count.\n");

  report.meta()
      .set("tagents", static_cast<std::uint64_t>(tagents))
      .set("queries", static_cast<std::uint64_t>(queries))
      .set("repeats", static_cast<std::uint64_t>(repeats));
  const std::string written = report.write(json_out);
  if (written.empty()) {
    std::fprintf(stderr, "failed to write %s\n", json_out.c_str());
    return 1;
  }
  std::printf("wrote %s\n", written.c_str());
  return 0;
}
