// Ablation A7: sensitivity to the agent-id bit distribution.
//
// The mechanism hashes *prefixes of the binary representation of agent ids*
// (paper §3) and splits on id bits, so extendible hashing's usual assumption
// applies: id bits should be uniformly distributed. This bench makes the
// assumption visible by running the same workload with (a) well-mixed ids
// and (b) small sequential ids, whose high-order bits are all zero. With
// sequential ids, a simple split must walk m = 1, 2, … toward the first bit
// that actually discriminates — bounded by max_split_bits — so balancing is
// slow or impossible and the mechanism degenerates toward the centralized
// scheme. The practical lesson the bench prints: mix your ids (a platform
// concern the paper's "independent of any agent-naming scheme" design makes
// trivially available).
//
// Flags: --tagents=100 --queries=1500 --max-split-bits=4,16
//        --json-out=BENCH_ablation_ids.json

#include <cstdio>
#include <stdexcept>
#include <string>

#include "core/hash_scheme.hpp"
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
  std::vector<std::int64_t> split_bits;
  std::string json_out;
  try {
    tagents = static_cast<std::size_t>(flags.get_int("tagents", 100));
    queries = static_cast<std::size_t>(flags.get_int("queries", 1500));
    split_bits = flags.get_int_list("max-split-bits", {4, 16});
    json_out = flags.get_string("json-out", "BENCH_ablation_ids.json");
    flags.fail_on_unknown();
  } catch (const std::invalid_argument& error) {
    std::fprintf(stderr, "bench_ablation_ids: %s\n", error.what());
    return 2;
  }

  std::printf(
      "Ablation A7: id-distribution sensitivity (%zu TAgents, residence "
      "500ms)\n\n",
      tagents);

  workload::Table table({"ids", "max m", "location ms", "p95 ms", "IAgents",
                         "max leaf depth (bits)", "found"});
  util::BenchReport report("ablation_ids");

  const auto run_case = [&](bool mixed, std::size_t max_m) {
    ExperimentConfig config;
    config.scheme = "hash";
    config.tagents = tagents;
    config.total_queries = queries;
    config.mixed_ids = mixed;
    config.mechanism.max_split_bits = max_m;
    std::size_t max_depth = 0;
    config.on_finish = [&max_depth](core::LocationScheme& scheme) {
      auto& hash = static_cast<core::HashLocationScheme&>(scheme);
      for (const auto leaf : hash.hagent().tree().leaves()) {
        max_depth = std::max(max_depth, hash.hagent().tree().depth_bits(leaf));
      }
    };
    const ExperimentResult result = workload::run_experiment(config);
    table.add_row({mixed ? "mixed" : "sequential", std::to_string(max_m),
                   workload::fmt(result.location_ms.mean()),
                   workload::fmt(result.location_ms.percentile(95)),
                   std::to_string(result.trackers_at_end),
                   std::to_string(max_depth),
                   workload::fmt_count(result.queries_found)});
    report.add_row()
        .set("ids", mixed ? "mixed" : "sequential")
        .set("max_split_bits", static_cast<std::uint64_t>(max_m))
        .set("trackers", static_cast<std::uint64_t>(result.trackers_at_end))
        .set("max_leaf_depth_bits", static_cast<std::uint64_t>(max_depth))
        .set("queries_found", result.queries_found)
        .add_summary("location_ms", result.location_ms);
    std::fflush(stdout);
  };

  run_case(true, static_cast<std::size_t>(split_bits.front()));
  for (const auto m : split_bits) {
    run_case(false, static_cast<std::size_t>(m));
  }

  std::printf("%s\n", table.str().c_str());
  std::printf(
      "Reading: sequential ids leave the discriminating bits deep in the "
      "id;\nwith small max_split_bits the tree cannot reach them and load "
      "stays on few\nIAgents (location time degrades toward centralized). "
      "Raising max_split_bits\nrestores balance at the cost of deeper "
      "hyper-labels. Mixed ids avoid the\nissue entirely.\n");

  report.meta()
      .set("tagents", static_cast<std::uint64_t>(tagents))
      .set("queries", static_cast<std::uint64_t>(queries));
  const std::string written = report.write(json_out);
  if (written.empty()) {
    std::fprintf(stderr, "failed to write %s\n", json_out.c_str());
    return 1;
  }
  std::printf("wrote %s\n", written.c_str());
  return 0;
}
