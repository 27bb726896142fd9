#pragma once

#include <functional>

#include "net/network.hpp"

namespace agentloc::net {

/// The message-plane seam (DESIGN.md §17): everything the agent platform
/// asks of "the network" when it moves one payload between two nodes.
///
/// The platform owns scheduling and delivery (inboxes, burst coalescing,
/// bounce semantics); the transport owns the physics underneath — fault
/// injection, latency sampling, and delivery accounting. Factoring that
/// boundary into an interface lets the same platform code run over
///
///   * `SimTransport` (the default): the simulated datagram `Network`,
///     bit-identical to the pre-seam code path — every call forwards to the
///     same `Network` method in the same order, so fixed-seed runs replay
///     exactly (test-enforced, see `transport_seam_test.cpp`), and
///   * decorators (tracing, counting, fault-plan shims) wrapped around any
///     backend, which is how the seam tests prove nothing bypasses it.
///
/// The *real* POSIX socket backend (`SocketTransport`) lives one layer
/// below this interface: it moves encoded `net::Frame`s between processes
/// where there is no simulator to schedule into, so it binds at the wire
/// (frame/fd) boundary instead of the planning boundary — see the backend
/// matrix in DESIGN.md §17.
///
/// Contract notes:
///  * `plan_transmission` must count the message and sample faults/latency
///    exactly once per call; the caller schedules `copies` deliveries at the
///    returned delays and reports each with `note_delivered`.
///  * `faults()` is THE fault-injection surface. Backends must apply it to
///    every transmission (`plan_transmission` and `send` alike); a backend
///    that silently bypassed it would break the failover/robustness suites,
///    which configure drops and partitions through this seam.
class Transport {
 public:
  virtual ~Transport() = default;

  virtual std::size_t node_count() const noexcept = 0;

  /// Sample the fault plan and latency model for one transmission, counting
  /// it in the stats, without scheduling anything.
  virtual TransmitPlan plan_transmission(NodeId from, NodeId to,
                                         std::size_t bytes) = 0;

  /// Record one delivery planned via `plan_transmission`.
  virtual void note_delivered(NodeId to) noexcept = 0;

  /// Transmit `bytes` from `from` to `to`; on (each) delivery run `deliver`.
  /// Returns false when the fault plan swallowed the message entirely.
  virtual bool send(NodeId from, NodeId to, std::size_t bytes,
                    std::function<void()> deliver) = 0;

  virtual FaultPlan& faults() noexcept = 0;
  virtual const NetworkStats& stats() const noexcept = 0;
};

/// Default backend: the simulated `Network`, unchanged. Pure forwarding —
/// no extra state, no extra RNG draws — so a platform running over this
/// backend is bit-identical to one calling the `Network` directly.
class SimTransport final : public Transport {
 public:
  explicit SimTransport(Network& network) noexcept : network_(network) {}

  std::size_t node_count() const noexcept override {
    return network_.node_count();
  }

  TransmitPlan plan_transmission(NodeId from, NodeId to,
                                 std::size_t bytes) override {
    return network_.plan_transmission(from, to, bytes);
  }

  void note_delivered(NodeId) noexcept override { network_.note_delivered(); }

  bool send(NodeId from, NodeId to, std::size_t bytes,
            std::function<void()> deliver) override {
    return network_.send(from, to, bytes, std::move(deliver));
  }

  FaultPlan& faults() noexcept override { return network_.faults(); }

  const NetworkStats& stats() const noexcept override {
    return network_.stats();
  }

  Network& network() noexcept { return network_; }

 private:
  Network& network_;
};

/// Pass-through decorator base for seam tests and tracing shims: forwards
/// every call to `inner` verbatim. Subclasses override what they observe;
/// a run with an unmodified `ForwardingTransport` installed must be
/// bit-identical to a run without it (test-enforced).
class ForwardingTransport : public Transport {
 public:
  explicit ForwardingTransport(Transport& inner) noexcept : inner_(inner) {}

  std::size_t node_count() const noexcept override {
    return inner_.node_count();
  }
  TransmitPlan plan_transmission(NodeId from, NodeId to,
                                 std::size_t bytes) override {
    return inner_.plan_transmission(from, to, bytes);
  }
  void note_delivered(NodeId to) noexcept override {
    inner_.note_delivered(to);
  }
  bool send(NodeId from, NodeId to, std::size_t bytes,
            std::function<void()> deliver) override {
    return inner_.send(from, to, bytes, std::move(deliver));
  }
  FaultPlan& faults() noexcept override { return inner_.faults(); }
  const NetworkStats& stats() const noexcept override {
    return inner_.stats();
  }

  Transport& inner() noexcept { return inner_; }

 private:
  Transport& inner_;
};

}  // namespace agentloc::net
