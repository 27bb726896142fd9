// Ablation A2: all four location schemes side by side — the paper's hash
// mechanism and centralized baseline (§5) plus the two related-work designs
// it discusses (§6): Ajanta-style home registries and Voyager-style
// forwarding pointers.
//
// Two sweeps: population (Experiment I's axis) and mobility (Experiment
// II's axis). Expectation: centralized degrades on both axes; home spreads
// load but cannot adapt it; forwarding degrades with mobility (pointer
// chains); hash stays flat on both axes.
//
// Flags: --agents=20,50,100 --residences-ms=100,500,2000 --queries=1200
//        --json-out=BENCH_ablation_schemes.json

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

namespace {

const std::vector<std::string> kSchemes = {"centralized", "home", "forwarding",
                                           "hash"};

void run_sweep(const char* title, const char* axis,
               const std::vector<std::int64_t>& values,
               const std::function<void(ExperimentConfig&, std::int64_t)>&
                   apply,
               std::size_t queries, std::size_t repeats, const char* sweep,
               const char* axis_key, util::BenchReport& report) {
  std::printf("%s\n\n", title);
  workload::Table table({"scheme", axis, "location ms", "p95 ms", "trackers",
                         "found", "failed"});
  for (const std::string& scheme : kSchemes) {
    for (const std::int64_t value : values) {
      ExperimentConfig config;
      config.scheme = scheme;
      config.total_queries = queries;
      apply(config, value);
      const ExperimentResult result = workload::run_repeated(config, repeats);
      table.add_row({scheme, std::to_string(value),
                     workload::fmt(result.location_ms.mean()),
                     workload::fmt(result.location_ms.percentile(95)),
                     std::to_string(result.trackers_at_end),
                     workload::fmt_count(result.queries_found),
                     workload::fmt_count(result.queries_failed)});
      report.add_row()
          .set("sweep", sweep)
          .set("scheme", scheme)
          .set(axis_key, value)
          .set("trackers", static_cast<std::uint64_t>(result.trackers_at_end))
          .set("queries_found", result.queries_found)
          .set("queries_failed", result.queries_failed)
          .add_summary("location_ms", result.location_ms);
      std::fflush(stdout);
    }
  }
  std::printf("%s\n", table.str().c_str());
}

}  // namespace

int main(int argc, char** argv) {
  const util::Flags flags(argc, argv);
  std::vector<std::int64_t> agents;
  std::vector<std::int64_t> residences;
  std::size_t queries = 0;
  std::size_t repeats = 0;
  std::string json_out;
  try {
    agents = flags.get_int_list("agents", {20, 50, 100});
    residences = flags.get_int_list("residences-ms", {100, 500, 2000});
    queries = static_cast<std::size_t>(flags.get_int("queries", 1200));
    repeats = static_cast<std::size_t>(flags.get_int("repeats", 1));
    json_out = flags.get_string("json-out", "BENCH_ablation_schemes.json");
    flags.fail_on_unknown();
  } catch (const std::invalid_argument& error) {
    std::fprintf(stderr, "bench_ablation_schemes: %s\n", error.what());
    return 2;
  }

  util::BenchReport report("ablation_schemes");

  run_sweep("Ablation A2a: schemes vs. population (residence 500 ms)",
            "tagents", agents,
            [](ExperimentConfig& config, std::int64_t value) {
              config.tagents = static_cast<std::size_t>(value);
            },
            queries, repeats, "population", "tagents", report);

  run_sweep("Ablation A2b: schemes vs. mobility (20 TAgents)",
            "residence ms", residences,
            [](ExperimentConfig& config, std::int64_t value) {
              config.tagents = 20;
              config.residence =
                  sim::SimTime::millis(static_cast<double>(value));
            },
            queries, repeats, "mobility", "residence_ms", report);

  std::printf(
      "Reading: 'home' spreads entries by id but cannot rebalance load;\n"
      "'forwarding' pays pointer-chain hops that grow with mobility between\n"
      "queries; the hash mechanism adapts tracker count to the offered "
      "load.\n");

  report.meta()
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
