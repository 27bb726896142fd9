// Ablation A10: guaranteed discovery of fast movers — the watch/notify
// extension (the paper's §6 open problem, after Moreau and Murphy/Picco).
//
// The failure mode: an agent that moves every D ms is located correctly, but
// by the time the requester *contacts* the reported node the agent has left
// again; with plain locate+contact the requester can chase forever. The
// watch primitive instead delivers the agent's next landing point the moment
// it lands, so the contact races only the (full) dwell time.
//
// The bench sweeps dwell time and compares, per attempted conversation:
// contact success rate via locate+contact vs. via watch+contact.
//
// Flags: --dwells-ms=2,3,5,10,25 --conversations=300 --seed=1
//        --json-out=BENCH_watch.json

#include <cstdio>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/hash_scheme.hpp"
#include "platform/agent_system.hpp"
#include "util/bench_report.hpp"
#include "util/flags.hpp"
#include "workload/report.hpp"
#include "workload/tagent.hpp"

using namespace agentloc;

namespace {

struct Hello {
  static constexpr std::size_t kWireBytes = 24;
};

/// A conversation initiator: find the target, then exchange one message.
class Caller : public platform::Agent {
 public:
  Caller(core::HashLocationScheme& scheme, platform::AgentId target,
         bool use_watch, std::size_t conversations)
      : scheme_(scheme),
        target_(target),
        use_watch_(use_watch),
        remaining_(conversations) {}

  void on_start() override { next(); }

  void on_message(const platform::Message& message) override {
    scheme_.handle_agent_message(*this, message);
  }

  std::size_t successes = 0;
  std::size_t failures = 0;
  bool done() const { return remaining_ == 0; }

 private:
  void next() {
    if (remaining_ == 0) return;
    --remaining_;
    if (use_watch_) {
      scheme_.watch(*this, target_,
                    [this](const core::HashLocationScheme::WatchOutcome& o) {
                      if (!o.fired) {
                        ++failures;
                        schedule_next();
                        return;
                      }
                      contact(o.entry.node);
                    });
    } else {
      scheme_.locate(*this, target_,
                     [this](const core::LocateOutcome& o) {
                       if (!o.found) {
                         ++failures;
                         schedule_next();
                         return;
                       }
                       contact(o.node);
                     });
    }
  }

  void contact(net::NodeId at) {
    system().request(id(), platform::AgentAddress{at, target_}, Hello{},
                     Hello::kWireBytes, [this](platform::RpcResult result) {
                       if (result.ok()) {
                         ++successes;
                       } else {
                         ++failures;  // the target had already moved on
                       }
                       schedule_next();
                     },
                     sim::SimTime::millis(500));
  }

  void schedule_next() {
    system().simulator().schedule_after(sim::SimTime::millis(20),
                                        [this] { next(); });
  }

  core::HashLocationScheme& scheme_;
  platform::AgentId target_;
  bool use_watch_;
  std::size_t remaining_;
};

/// The conversation target: replies to Hello; moves constantly.
class Mover : public workload::TAgent {
 public:
  using workload::TAgent::TAgent;

  void on_message(const platform::Message& message) override {
    if (message.body_as<Hello>() != nullptr) {
      system().reply(message, id(), Hello{}, Hello::kWireBytes);
      return;
    }
    workload::TAgent::on_message(message);
  }
};

double run(double dwell_ms, bool use_watch, std::size_t conversations,
           std::uint64_t seed) {
  util::Rng master(seed);
  sim::Simulator simulator;
  net::Network network(simulator, 12, net::make_default_lan_model(),
                       master.fork());
  platform::AgentSystem system(simulator, network);
  core::MechanismConfig mechanism;
  core::HashLocationScheme scheme(system, mechanism);

  workload::TAgent::Config target_config;
  target_config.residence = sim::SimTime::millis(dwell_ms);
  // Constant dwell: with exponential dwell the remaining time is memoryless
  // and the comparison would be a wash by construction.
  target_config.exponential_residence = false;
  target_config.seed = master.next();
  auto& target = system.create<Mover>(3, scheme, target_config);
  simulator.run_until(sim::SimTime::millis(100));

  auto& caller = system.create<Caller>(0, scheme, target.id(), use_watch,
                                       conversations);
  // Generous horizon; the caller self-paces.
  for (int i = 0; i < 4000 && !caller.done(); ++i) {
    simulator.run_until(simulator.now() + sim::SimTime::millis(100));
  }
  const double total =
      static_cast<double>(caller.successes + caller.failures);
  return total > 0 ? 100.0 * static_cast<double>(caller.successes) / total
                   : 0.0;
}

}  // namespace

int main(int argc, char** argv) {
  const util::Flags flags(argc, argv);
  std::vector<std::int64_t> dwells;
  std::size_t conversations = 0;
  std::uint64_t seed = 0;
  std::string json_out;
  try {
    dwells = flags.get_int_list("dwells-ms", {2, 3, 5, 10, 25});
    conversations =
        static_cast<std::size_t>(flags.get_int("conversations", 300));
    seed = static_cast<std::uint64_t>(flags.get_int("seed", 1));
    json_out = flags.get_string("json-out", "BENCH_watch.json");
    flags.fail_on_unknown();
  } catch (const std::invalid_argument& error) {
    std::fprintf(stderr, "bench_watch: %s\n", error.what());
    return 2;
  }

  std::printf(
      "Ablation A10: contacting a fast mover — locate+contact vs. "
      "watch+contact\n(%zu conversation attempts per cell)\n\n",
      conversations);

  workload::Table table({"dwell ms", "locate+contact success %",
                         "watch+contact success %"});
  util::BenchReport report("watch");
  for (const std::int64_t dwell : dwells) {
    const double plain =
        run(static_cast<double>(dwell), false, conversations, seed);
    const double watched =
        run(static_cast<double>(dwell), true, conversations, seed);
    table.add_row({std::to_string(dwell), workload::fmt(plain, 1),
                   workload::fmt(watched, 1)});
    report.add_row()
        .set("dwell_ms", dwell)
        .set("locate_success_pct", plain)
        .set("watch_success_pct", watched);
    std::fflush(stdout);
  }
  std::printf("%s\n", table.str().c_str());
  std::printf(
      "Reading: a plain locate's answer ages by one network round trip "
      "before the\ncontact lands — fatal when the dwell time is comparable. "
      "The watch answer is\nfresh at the instant the target lands, so the "
      "contact races the full dwell.\n");

  report.meta()
      .set("conversations", static_cast<std::uint64_t>(conversations))
      .set("seed", seed);
  const std::string written = report.write(json_out);
  if (written.empty()) {
    std::fprintf(stderr, "failed to write %s\n", json_out.c_str());
    return 1;
  }
  std::printf("wrote %s\n", written.c_str());
  return 0;
}
