#pragma once

#include <memory>
#include <vector>

#include "core/scheme.hpp"
#include "sim/simulator.hpp"
#include "util/rng.hpp"

namespace agentloc::workload {

/// A TAgent — the paper's name for the tracked mobile agents of the
/// evaluation (§5): it registers with the location mechanism at creation,
/// roams the network staying `residence` at each node, and reports its new
/// location after every migration.
///
/// A million of them are live at sim-scale, so a TAgent holds only its own
/// state (DESIGN.md §15): `Config` is read once at construction, and the
/// pending admission or move is a simulator event the agent owns directly.
/// `on_dispose` cancels either; `set_mobile(false)` cancels only a move.
class TAgent : public platform::Agent {
 public:
  struct Config {
    /// Dwell time at each node (paper: 0.5 s in Experiment I; the sweep
    /// variable of Experiment II).
    sim::SimTime residence = sim::SimTime::millis(500);

    /// Draw dwell times from an exponential distribution with mean
    /// `residence` instead of a constant — desynchronizes the population.
    bool exponential_residence = true;

    /// Per-agent RNG stream seed.
    std::uint64_t seed = 1;

    /// Whether the agent starts moving immediately.
    bool mobile = true;

    /// Admission spread: register (and start roaming) after a uniform
    /// random delay in [0, start_stagger] instead of at creation time.
    /// Zero (the default) keeps the everything-at-t0 burst. At million-agent
    /// populations the harness staggers admission across the warmup so the
    /// platform's RPC/in-flight/inbox tables size for steady state, not for
    /// one synchronized registration spike no real deployment produces.
    sim::SimTime start_stagger = sim::SimTime::zero();

    /// When non-empty, the agent roams only within these nodes (cluster
    /// mobility — used by the locality ablation). Must contain at least two
    /// nodes for movement to happen.
    std::vector<net::NodeId> node_pool;
  };

  TAgent(core::LocationScheme& scheme, const Config& config);

  void on_start() override;
  void on_arrival(net::NodeId from_node) override;
  void on_message(const platform::Message& message) override;
  void on_delivery_failure(const platform::DeliveryFailure& failure) override;
  void on_dispose() override;

  /// Pause/resume roaming (the invariant tests freeze the population with
  /// it before comparing the mechanism against ground truth). Before
  /// admission it only records the flag, which `admit` then follows.
  void set_mobile(bool mobile);

  /// Change the dwell time; takes effect from the next scheduled move
  /// (used by adaptation benches to create mobility steps).
  void set_residence(sim::SimTime residence) { residence_ = residence; }

  std::uint64_t moves_completed() const noexcept { return moves_; }
  bool registered() const noexcept { return registered_; }

 private:
  void admit();
  void schedule_move();
  void do_move();
  /// Cancel the pending admission or move, then schedule `fn` after `delay`
  /// (cancel first, as `sim::Timeout::arm` does).
  void arm(sim::SimTime delay, void (TAgent::*fn)());
  void cancel_timer();

  core::LocationScheme& scheme_;
  util::Rng rng_;
  sim::SimTime residence_;
  sim::SimTime start_stagger_;
  sim::EventId timer_ = sim::kInvalidEvent;
  /// Cluster mobility's node pool; null unless `Config::node_pool` was set.
  std::unique_ptr<const std::vector<net::NodeId>> node_pool_;
  std::uint64_t moves_ = 0;
  bool exponential_residence_;
  bool mobile_;
  bool admitted_ = false;  ///< admit() ran: the timer holds moves only
  bool registered_ = false;
};

// One 128-byte allocator chunk per agent (DESIGN.md §15).
static_assert(sizeof(TAgent) <= 120);

}  // namespace agentloc::workload
