// Experiment II (paper §5, Figure 8): average location time vs. TAgent
// mobility (time spent at each node), centralized vs. hash-based mechanism.
//
// Paper setup (DESIGN.md §5): 20 TAgents ("a small number … to emphasize
// the effect of mobility"), residence times {100, 200, 500, 1000, 2000} ms,
// 2000 queries. Finding to reproduce: the faster the TAgents move, the more
// update messages the tracker absorbs — the centralized scheme degrades as
// residence time shrinks while the hash mechanism stays almost constant.
//
// Flags: --residences-ms=100,200,500,1000,2000 --tagents=20 --queries=2000
//        --repeats=2 --nodes=16 --seed=1 --schemes=centralized,hash
//        --threads=0 (0 = one worker per hardware thread)
//        --json-out=BENCH_experiment2.json
//
// Rows are named exp2/<scheme>/residence_ms=<r>. Every field except
// threads, wall_seconds and events_per_sec is fixed by the seed, so CI
// compares a fresh --repeats=2 run against the committed record exactly
// (scripts/check_bench_exact.py).

#include <chrono>
#include <cstdio>
#include <stdexcept>
#include <string>
#include <vector>

#include "util/bench_report.hpp"
#include "util/flags.hpp"
#include "util/parallel_for.hpp"
#include "workload/experiment.hpp"
#include "workload/report.hpp"

using namespace agentloc;
using workload::ExperimentConfig;
using workload::ExperimentResult;

int main(int argc, char** argv) {
  const util::Flags flags(argc, argv);
  std::vector<std::int64_t> residences;
  std::size_t tagents = 0;
  std::size_t queries = 0;
  std::size_t repeats = 0;
  std::size_t nodes = 0;
  std::uint64_t seed = 0;
  std::size_t threads = 0;
  std::string json_out;
  std::vector<std::string> schemes;
  try {
    residences =
        flags.get_int_list("residences-ms", {100, 200, 500, 1000, 2000});
    tagents = static_cast<std::size_t>(flags.get_int("tagents", 20));
    queries = static_cast<std::size_t>(flags.get_int("queries", 2000));
    repeats = static_cast<std::size_t>(flags.get_int("repeats", 2));
    nodes = static_cast<std::size_t>(flags.get_int("nodes", 16));
    seed = static_cast<std::uint64_t>(flags.get_int("seed", 1));
    threads = static_cast<std::size_t>(flags.get_int("threads", 0));
    json_out = flags.get_string("json-out", "BENCH_experiment2.json");
    schemes = workload::get_scheme_list(flags, {"centralized", "hash"});
    flags.fail_on_unknown();
  } catch (const std::invalid_argument& error) {
    std::fprintf(stderr, "bench_experiment2: %s\n", error.what());
    return 2;
  }
  if (threads == 0) threads = util::default_threads();

  std::printf(
      "Experiment II (Figure 8): location time vs. mobility rate\n"
      "tagents=%zu queries=%zu repeats=%zu nodes=%zu\n\n",
      tagents, queries, repeats, nodes);

  workload::Table table({"scheme", "residence ms", "location ms (mean)",
                         "p95 ms", "trackers", "found", "failed",
                         "updates/s"});
  std::vector<std::pair<std::string, double>> series;

  util::BenchReport report("experiment2");
  std::uint64_t total_events = 0;
  double total_wall = 0.0;

  for (const std::string& scheme : schemes) {
    for (const std::int64_t residence : residences) {
      ExperimentConfig config;
      config.scheme = scheme;
      config.nodes = nodes;
      config.tagents = tagents;
      config.residence = sim::SimTime::millis(static_cast<double>(residence));
      config.total_queries = queries;
      config.seed = seed;
      const auto start = std::chrono::steady_clock::now();
      const ExperimentResult result =
          workload::run_parallel(config, repeats, threads);
      const double wall =
          std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                        start)
              .count();
      total_events += result.events_executed;
      total_wall += wall;

      const double update_rate =
          result.sim_seconds > 0
              ? static_cast<double>(result.scheme_stats.updates) /
                    result.sim_seconds
              : 0.0;
      table.add_row({scheme, std::to_string(residence),
                     workload::fmt(result.location_ms.mean()),
                     workload::fmt(result.location_ms.percentile(95)),
                     std::to_string(result.trackers_at_end),
                     workload::fmt_count(result.queries_found),
                     workload::fmt_count(result.queries_failed),
                     workload::fmt(update_rate, 1)});
      series.emplace_back(scheme + " r=" + std::to_string(residence),
                          result.location_ms.mean());
      report.add_row()
          .set("name", "exp2/" + scheme +
                           "/residence_ms=" + std::to_string(residence))
          .set("scheme", scheme)
          .set("residence_ms", static_cast<std::int64_t>(residence))
          .set("threads", static_cast<std::uint64_t>(threads))
          .set("wall_seconds", wall)
          .set("events", result.events_executed)
          .set("events_per_sec",
               wall > 0 ? static_cast<double>(result.events_executed) / wall
                        : 0.0)
          .set("updates_per_sec", update_rate)
          .set("queries_found", result.queries_found)
          .set("queries_failed", result.queries_failed)
          .add_summary("location_ms", result.location_ms);
      std::fflush(stdout);
    }
  }

  std::printf("%s\n", table.str().c_str());
  std::printf("Figure 8 shape (mean location time, ms):\n%s\n",
              workload::ascii_series(series).c_str());
  std::printf(
      "Expected shape (paper): centralized degrades as residence time "
      "shrinks\n(faster movement -> more updates); the hash mechanism stays "
      "almost constant.\n");

  report.meta()
      .set("repeats", static_cast<std::uint64_t>(repeats))
      .set("threads", static_cast<std::uint64_t>(threads))
      .set("hardware_threads",
           static_cast<std::uint64_t>(util::default_threads()))
      .set("tagents", static_cast<std::uint64_t>(tagents))
      .set("queries", static_cast<std::uint64_t>(queries))
      .set("nodes", static_cast<std::uint64_t>(nodes))
      .set("wall_seconds", total_wall)
      .set("events", total_events)
      .set("events_per_sec",
           total_wall > 0 ? static_cast<double>(total_events) / total_wall
                          : 0.0);
  const std::string written = report.write(json_out);
  if (written.empty()) {
    std::fprintf(stderr, "failed to write %s\n", json_out.c_str());
    return 1;
  }
  std::printf("wrote %s\n", written.c_str());
  return 0;
}
