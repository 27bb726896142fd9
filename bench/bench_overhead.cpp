// Ablation A8: message and byte overhead per scheme.
//
// Location time is only half the comparison — the paper's related-work
// section argues about *costs* too. This bench accounts for the network
// traffic each scheme generates for the identical workload: messages and
// bytes per completed query, and (for the hash scheme) how much of it is
// control traffic (hash refreshes, rehash coordination, handoffs).
//
// Flags: --tagents=50 --queries=1500 --residence-ms=300
//        --json-out=BENCH_overhead.json

#include <cstdio>
#include <stdexcept>
#include <string>
#include <vector>

#include "util/bench_report.hpp"
#include "util/flags.hpp"
#include "workload/experiment.hpp"
#include "workload/report.hpp"

using namespace agentloc;
using workload::ExperimentConfig;
using workload::ExperimentResult;

int main(int argc, char** argv) {
  const util::Flags flags(argc, argv);
  std::size_t tagents = 0;
  std::size_t queries = 0;
  double residence_ms = 0.0;
  std::string json_out;
  try {
    tagents = static_cast<std::size_t>(flags.get_int("tagents", 50));
    queries = static_cast<std::size_t>(flags.get_int("queries", 1500));
    residence_ms = flags.get_double("residence-ms", 300.0);
    json_out = flags.get_string("json-out", "BENCH_overhead.json");
    flags.fail_on_unknown();
  } catch (const std::invalid_argument& error) {
    std::fprintf(stderr, "bench_overhead: %s\n", error.what());
    return 2;
  }

  std::printf(
      "Ablation A8: network overhead per scheme "
      "(%zu TAgents, residence %.0fms, %zu queries)\n\n",
      tagents, residence_ms, queries);

  workload::Table table({"scheme", "location ms", "msgs/query", "KB/s",
                         "msgs/update", "refresh pulls", "trackers"});
  util::BenchReport report("overhead");

  for (const std::string scheme :
       {"centralized", "home", "forwarding", "hash"}) {
    ExperimentConfig config;
    config.scheme = scheme;
    config.tagents = tagents;
    config.residence = sim::SimTime::millis(residence_ms);
    config.total_queries = queries;
    const ExperimentResult result = workload::run_experiment(config);

    const double messages =
        static_cast<double>(result.network_stats.messages_sent);
    const double updates =
        static_cast<double>(result.scheme_stats.updates);
    const double per_query =
        result.queries_found > 0
            ? messages / static_cast<double>(result.queries_found)
            : 0.0;
    const double kb_per_s =
        result.sim_seconds > 0
            ? static_cast<double>(result.network_stats.bytes_sent) / 1024.0 /
                  result.sim_seconds
            : 0.0;

    table.add_row({scheme, workload::fmt(result.location_ms.mean()),
                   workload::fmt(per_query, 1), workload::fmt(kb_per_s, 1),
                   workload::fmt(updates > 0 ? messages / updates : 0.0, 1),
                   workload::fmt_count(result.scheme_stats.refreshes_triggered),
                   std::to_string(result.trackers_at_end)});
    report.add_row()
        .set("scheme", scheme)
        .set("msgs_per_query", per_query)
        .set("kb_per_sec", kb_per_s)
        .set("msgs_per_update", updates > 0 ? messages / updates : 0.0)
        .set("messages", result.network_stats.messages_sent)
        .set("bytes", result.network_stats.bytes_sent)
        .set("refreshes", result.scheme_stats.refreshes_triggered)
        .set("trackers", static_cast<std::uint64_t>(result.trackers_at_end))
        .add_summary("location_ms", result.location_ms);
    std::fflush(stdout);
  }

  std::printf("%s\n", table.str().c_str());
  std::printf(
      "Note: msgs/query divides *all* traffic (updates included) by "
      "completed queries,\nso it reflects each scheme's total footprint for "
      "the same workload, not the\ncost of one isolated query.\n");

  report.meta()
      .set("tagents", static_cast<std::uint64_t>(tagents))
      .set("queries", static_cast<std::uint64_t>(queries))
      .set("residence_ms", residence_ms);
  const std::string written = report.write(json_out);
  if (written.empty()) {
    std::fprintf(stderr, "failed to write %s\n", json_out.c_str());
    return 1;
  }
  std::printf("wrote %s\n", written.c_str());
  return 0;
}
