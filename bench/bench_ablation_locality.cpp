// Ablation A6: IAgent locality placement (the paper's §7 extension: "the
// IAgents could move closer to the majority of the agents that they serve").
//
// Workload: the tracked population roams inside a small cluster of nodes far
// from where IAgents are initially placed. With locality migration enabled,
// IAgents relocate into the cluster, shortening the update path (updates are
// the dominant traffic). The bench compares location/update behaviour with
// the extension off and on.
//
// Flags: --tagents=60 --cluster=4 --queries=1200 --nodes=16
//        --json-out=BENCH_ablation_locality.json

#include <cstdio>
#include <stdexcept>
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

struct Outcome {
  double location_ms = 0;
  std::size_t iagents = 0;
  std::uint64_t locality_moves = 0;
  std::size_t iagents_in_cluster = 0;
  std::uint64_t found = 0;
};

Outcome run(bool locality, std::size_t tagents, std::size_t cluster_size,
            std::size_t queries, std::size_t nodes, std::uint64_t seed) {
  // (cluster topology configured below)
  util::Rng master(seed);
  sim::Simulator simulator;
  // Two-tier topology: the roaming cluster is several WAN hops away from the
  // nodes where the HAgent and initial IAgent start — placement matters.
  net::ClusterLatencyModel::Config topology;
  topology.cluster_size = cluster_size;
  net::Network network(simulator, nodes,
                       std::make_unique<net::ClusterLatencyModel>(topology),
                       master.fork());
  platform::AgentSystem::Config platform_config;
  platform_config.service_time = sim::SimTime::micros(4000);
  platform::AgentSystem system(simulator, network, platform_config);

  core::MechanismConfig mechanism;
  mechanism.locality_migration = locality;
  core::HashLocationScheme scheme(system, mechanism);

  // The population roams the last topology cluster; the HAgent and initial
  // IAgent live in the first.
  std::vector<net::NodeId> pool;
  for (std::size_t i = 0; i < cluster_size; ++i) {
    pool.push_back(static_cast<net::NodeId>(nodes - 1 - i));
  }

  std::vector<platform::AgentId> targets;
  for (std::size_t i = 0; i < tagents; ++i) {
    workload::TAgent::Config config;
    config.residence = sim::SimTime::millis(300);
    config.seed = master.next();
    auto& agent = system.create<workload::ClusteredTAgent>(
        pool[i % pool.size()], scheme, config, pool);
    targets.push_back(agent.id());
  }

  simulator.run_until(sim::SimTime::seconds(60));

  std::size_t done = 0;
  workload::QuerierAgent::Config querier_config;
  querier_config.quota = queries;
  querier_config.think = sim::SimTime::millis(100);
  querier_config.seed = master.next();
  auto& querier = system.create<workload::QuerierAgent>(
      pool.front(), scheme, querier_config, targets,
      [&] { ++done; simulator.request_stop(); });
  simulator.run_until(sim::SimTime::seconds(600));

  Outcome outcome;
  outcome.location_ms = querier.latencies_ms().mean();
  outcome.found = querier.found();
  outcome.iagents = scheme.hagent().iagent_count();
  scheme.hagent().tree().for_each_leaf(
      [&](hashtree::IAgentId, hashtree::NodeLocation location) {
        for (const net::NodeId member : pool) {
          if (location == member) {
            ++outcome.iagents_in_cluster;
            break;
          }
        }
      });
  outcome.locality_moves = scheme.hagent().stats().iagent_moves;
  return outcome;
}

}  // namespace

int main(int argc, char** argv) {
  const util::Flags flags(argc, argv);
  std::size_t tagents = 0;
  std::size_t cluster = 0;
  std::size_t queries = 0;
  std::size_t nodes = 0;
  std::uint64_t seed = 0;
  std::string json_out;
  try {
    tagents = static_cast<std::size_t>(flags.get_int("tagents", 60));
    cluster = static_cast<std::size_t>(flags.get_int("cluster", 4));
    queries = static_cast<std::size_t>(flags.get_int("queries", 1200));
    nodes = static_cast<std::size_t>(flags.get_int("nodes", 16));
    seed = static_cast<std::uint64_t>(flags.get_int("seed", 1));
    json_out = flags.get_string("json-out", "BENCH_ablation_locality.json");
    flags.fail_on_unknown();
  } catch (const std::invalid_argument& error) {
    std::fprintf(stderr, "bench_ablation_locality: %s\n", error.what());
    return 2;
  }

  std::printf(
      "Ablation A6: locality placement of IAgents (paper §7 extension)\n"
      "%zu TAgents roaming a %zu-node cluster in a %zu-node network\n\n",
      tagents, cluster, nodes);

  workload::Table table({"locality", "location ms", "IAgents",
                         "IAgents in cluster", "IAgent moves", "found"});
  util::BenchReport report("ablation_locality");
  for (const bool locality : {false, true}) {
    const Outcome outcome =
        run(locality, tagents, cluster, queries, nodes, seed);
    table.add_row({locality ? "on" : "off",
                   workload::fmt(outcome.location_ms),
                   std::to_string(outcome.iagents),
                   std::to_string(outcome.iagents_in_cluster),
                   workload::fmt_count(outcome.locality_moves),
                   workload::fmt_count(outcome.found)});
    report.add_row()
        .set("locality", locality ? "on" : "off")
        .set("location_ms_mean", outcome.location_ms)
        .set("iagents", static_cast<std::uint64_t>(outcome.iagents))
        .set("iagents_in_cluster",
             static_cast<std::uint64_t>(outcome.iagents_in_cluster))
        .set("iagent_moves", outcome.locality_moves)
        .set("found", outcome.found);
    std::fflush(stdout);
  }
  std::printf("%s\n", table.str().c_str());
  std::printf(
      "Reading: with the extension on, IAgents migrate into the cluster "
      "their agents\nroam, which shortens the (dominant) update path; "
      "queries issued from inside\nthe cluster also save a wide-area hop.\n");

  report.meta()
      .set("tagents", static_cast<std::uint64_t>(tagents))
      .set("cluster", static_cast<std::uint64_t>(cluster))
      .set("queries", static_cast<std::uint64_t>(queries))
      .set("nodes", static_cast<std::uint64_t>(nodes))
      .set("seed", seed);
  const std::string written = report.write(json_out);
  if (written.empty()) {
    std::fprintf(stderr, "failed to write %s\n", json_out.c_str());
    return 1;
  }
  std::printf("wrote %s\n", written.c_str());
  return 0;
}
