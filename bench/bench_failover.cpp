// Ablation A9: coordinator fault tolerance (the paper's §7 extension #2 —
// "we are supporting a primary copy mechanism for the hash function, thus
// making the HAgent that keeps this copy a vulnerability point").
//
// Timeline: the population churns under load; at t=kill the primary HAgent
// is destroyed. Queries must keep answering throughout (IAgents don't need
// the coordinator for lookups), the standby replica must be promoted by the
// first client that notices, and rehashing must resume — demonstrated by a
// post-failover load surge that grows the IAgent population again.
//
// Flags: --tagents=40 --kill-s=40 --seed=1
//        --json-out=BENCH_failover.json

#include <cstdio>
#include <string>
#include <vector>

#include "core/hash_scheme.hpp"
#include "platform/agent_system.hpp"
#include "sim/timer.hpp"
#include "util/bench_report.hpp"
#include "util/flags.hpp"
#include "workload/querier.hpp"
#include "workload/tagent.hpp"

using namespace agentloc;

int main(int argc, char** argv) {
  util::Flags flags(argc, argv);
  const auto tagents = static_cast<std::size_t>(flags.get_int("tagents", 40));
  const double kill_s = flags.get_double("kill-s", 40.0);
  const auto seed = static_cast<std::uint64_t>(flags.get_int("seed", 1));
  const std::string json_out =
      flags.get_string("json-out", "BENCH_failover.json");

  util::Rng master(seed);
  sim::Simulator simulator;
  net::Network network(simulator, 16, net::make_default_lan_model(),
                       master.fork());
  platform::AgentSystem::Config platform_config;
  platform_config.service_time = sim::SimTime::micros(4000);
  platform::AgentSystem system(simulator, network, platform_config);

  core::MechanismConfig mechanism;
  mechanism.hagent_replication = true;
  core::HashLocationScheme scheme(system, mechanism);
  // Keep the id, not the agent: the sampler outlives the disposed primary.
  const platform::AgentId primary = scheme.hagent().id();
  core::HAgent* backup = scheme.backup_hagent();

  std::vector<platform::AgentId> targets;
  std::vector<workload::TAgent*> population;
  for (std::size_t i = 0; i < tagents; ++i) {
    workload::TAgent::Config config;
    config.residence = sim::SimTime::millis(250);
    config.seed = master.next();
    auto& agent = system.create<workload::TAgent>(
        static_cast<net::NodeId>(i % 16), scheme, config);
    population.push_back(&agent);
    targets.push_back(agent.id());
  }

  workload::QuerierAgent::Config querier_config;
  querier_config.quota = 0;
  querier_config.think = sim::SimTime::millis(100);
  querier_config.seed = master.next();
  auto& querier =
      system.create<workload::QuerierAgent>(1, scheme, querier_config, targets);

  std::printf(
      "Ablation A9: HAgent fault tolerance (replication + promotion)\n"
      "%zu TAgents; the primary coordinator dies at t=%.0fs\n\n",
      tagents, kill_s);
  std::printf("%8s %12s %9s %9s %10s %9s\n", "t (s)", "coordinator",
              "IAgents", "queries", "failed", "mean ms");

  sim::PeriodicTimer sampler(simulator, sim::SimTime::seconds(10), [&] {
    const bool primary_alive = system.exists(primary);
    const char* who = primary_alive
                          ? "primary"
                          : (backup->role() == core::HAgent::Role::kPrimary
                                 ? "BACKUP*"
                                 : "backup");
    std::printf("%8.0f %12s %9zu %9zu %10llu %9.2f\n",
                simulator.now().as_seconds(), who, scheme.tracker_count(),
                querier.latencies_ms().count(),
                static_cast<unsigned long long>(querier.failed()),
                querier.latencies_ms().mean());
  });
  sampler.start();

  simulator.run_until(sim::SimTime::seconds(kill_s));
  const std::size_t trackers_at_kill = scheme.tracker_count();
  const auto failed_at_kill = querier.failed();
  system.dispose(primary);
  std::printf("%8.0f %12s\n", simulator.now().as_seconds(),
              "<primary killed>");

  // Post-failover surge: faster movement demands more IAgents, which only a
  // promoted coordinator can create.
  for (auto* agent : population) {
    agent->set_residence(sim::SimTime::millis(80));
  }
  simulator.run_until(sim::SimTime::seconds(2.5 * kill_s));

  std::printf("\nsummary:\n");
  std::printf("  promoted: %s (promotions=%llu, ops replayed before death="
              "%llu)\n",
              backup->role() == core::HAgent::Role::kPrimary ? "yes" : "NO",
              static_cast<unsigned long long>(backup->stats().promotions),
              static_cast<unsigned long long>(
                  backup->stats().ops_applied_as_follower));
  std::printf("  IAgents: %zu at kill -> %zu after the post-failover surge\n",
              trackers_at_kill, scheme.tracker_count());
  std::printf("  queries: %zu completed, %llu failed (%llu of them after "
              "the kill)\n",
              querier.latencies_ms().count(),
              static_cast<unsigned long long>(querier.failed()),
              static_cast<unsigned long long>(querier.failed() -
                                              failed_at_kill));
  std::printf(
      "\nExpected: zero (or near-zero) failed queries, promotion shortly "
      "after the\nkill, and a larger IAgent population afterwards — the "
      "mechanism no longer has\na single point of failure.\n");

  util::BenchReport report("failover");
  report.meta()
      .set("tagents", static_cast<std::uint64_t>(tagents))
      .set("kill_s", kill_s)
      .set("seed", seed);
  report.add_row()
      .set("promoted",
           backup->role() == core::HAgent::Role::kPrimary ? "yes" : "no")
      .set("promotions", backup->stats().promotions)
      .set("ops_replayed", backup->stats().ops_applied_as_follower)
      .set("trackers_at_kill", static_cast<std::uint64_t>(trackers_at_kill))
      .set("trackers_after_surge",
           static_cast<std::uint64_t>(scheme.tracker_count()))
      .set("queries_failed", querier.failed())
      .set("queries_failed_after_kill", querier.failed() - failed_at_kill)
      .add_summary("location_ms", querier.latencies_ms());
  const std::string written = report.write(json_out);
  if (written.empty()) {
    std::fprintf(stderr, "failed to write %s\n", json_out.c_str());
    return 1;
  }
  std::printf("wrote %s\n", written.c_str());
  return 0;
}
