#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "net/network.hpp"
#include "net/transport.hpp"
#include "platform/agent.hpp"
#include "platform/message.hpp"
#include "sim/simulator.hpp"
#include "util/flat_map.hpp"
#include "util/inline_function.hpp"

namespace agentloc::platform {

/// Outcome of a `request` RPC.
struct RpcResult {
  enum class Status {
    kOk,               ///< `reply` holds the response.
    kTimeout,          ///< no response within the deadline
    kDeliveryFailure,  ///< destination node did not host the target agent
  };

  Status status = Status::kTimeout;
  Message reply;

  bool ok() const noexcept { return status == Status::kOk; }
};

/// RPC completion callback. Location-protocol callbacks capture a handful of
/// ids plus a continuation (~56 bytes), so 64 inline bytes keeps the request
/// path allocation-free where `std::function` spilled every capture.
using RpcCallback = util::InlineFunction<void(RpcResult), 64>;

/// RPC deadline of a `request` whose caller passes none.
inline constexpr sim::SimTime kDefaultRpcTimeout = sim::SimTime::millis(250);

/// Itemized estimate of the platform's resident heap bytes, by subsystem.
/// Feeds `PlatformStats::bytes_per_agent` and the `bench_scale` memory
/// curves; each component counts *capacity* (what is allocated), not
/// momentary occupancy, because pooled capacity is what the process holds at
/// steady state.
struct MemoryBreakdown {
  /// Agent record storage: the allocated slot chunks and the chunk table.
  std::size_t agent_records = 0;
  /// Always 0: queued messages wait in the in-flight pool and are counted
  /// under `in_flight`. Kept because perfbench reports the field.
  std::size_t inboxes = 0;
  /// Pending-RPC table slots.
  std::size_t rpc_table = 0;
  /// Message slot pool: every message between transmit and dispatch, in
  /// flight or queued in an inbox.
  std::size_t in_flight = 0;
  /// Always 0: the platform keeps no service registry (each node's LHAgent
  /// is held by the location scheme). Kept because perfbench reports the
  /// field.
  std::size_t services = 0;

  std::size_t total() const noexcept {
    return agent_records + rpc_table + in_flight;
  }
};

/// Counters the benches report alongside location times.
struct PlatformStats {
  std::uint64_t agents_created = 0;
  std::uint64_t agents_disposed = 0;
  std::uint64_t migrations_started = 0;
  std::uint64_t migrations_completed = 0;
  std::uint64_t messages_sent = 0;
  std::uint64_t messages_processed = 0;
  std::uint64_t messages_bounced = 0;
  std::uint64_t rpc_timeouts = 0;
  /// RPCs completed with `kDeliveryFailure` (bounced request, or the caller
  /// was disposed with the RPC still pending).
  std::uint64_t rpc_delivery_failures = 0;
  /// `BatchedUpdate` flushes performed by the core layer's update batchers.
  std::uint64_t batch_flushes = 0;
  /// Location updates that rode an existing batch instead of paying for a
  /// wire message of their own (`enqueued - flushed batches`).
  std::uint64_t messages_coalesced = 0;
  /// High-water mark of any single agent inbox (including the message in
  /// service) — the queueing-pressure analogue of the paper's saturation
  /// curves.
  std::size_t peak_inbox_depth = 0;
  /// Estimated resident platform bytes per live agent at collection time
  /// (`AgentSystem::estimated_resident_bytes / live_agent_count`), filled by
  /// the experiment harness; 0 while a run is in flight.
  double bytes_per_agent = 0.0;
  /// High-water mark of `AgentSystem::estimated_resident_bytes`, sampled at
  /// every allocation growth point (agent install, message pool growth).
  /// Deterministic for a fixed seed, so CI gates it exactly.
  std::size_t peak_resident_bytes = 0;

  /// Add `other`'s flow counters. The watermarks (`peak_inbox_depth`,
  /// `bytes_per_agent`, `peak_resident_bytes`) are left to the caller:
  /// replications take the max, not the sum.
  void add_flows(const PlatformStats& other) noexcept {
    agents_created += other.agents_created;
    agents_disposed += other.agents_disposed;
    migrations_started += other.migrations_started;
    migrations_completed += other.migrations_completed;
    messages_sent += other.messages_sent;
    messages_processed += other.messages_processed;
    messages_bounced += other.messages_bounced;
    rpc_timeouts += other.rpc_timeouts;
    rpc_delivery_failures += other.rpc_delivery_failures;
    batch_flushes += other.batch_flushes;
    messages_coalesced += other.messages_coalesced;
  }
};

/// The mobile-agent platform: hosts agents on simulated nodes, migrates them,
/// and delivers inter-agent messages.
///
/// This is the repository's stand-in for Aglets (see DESIGN.md §2). Three
/// properties matter to the reproduction:
///
/// 1. **Messaging is location-addressed.** A message goes to a (node, id)
///    address; if the agent is no longer there the platform bounces a
///    `DeliveryFailure` to the sender. Nothing in the platform tracks agents
///    globally — that is precisely the job of the location mechanism built
///    on top.
/// 2. **Processing costs CPU.** Each agent serves its inbox FIFO, one message
///    per `service_time`. An agent flooded with requests (the centralized
///    tracker at scale) accumulates queueing delay — the effect behind the
///    paper's Figure 7/8 curves.
/// 3. **Migration costs bandwidth and time.** Moving an agent ships its
///    serialized image through the same network, and the agent processes no
///    messages while in transit.
///
/// The message plane is allocation-free in steady state (DESIGN.md §10):
/// payloads live inline in `util::PayloadBox`, and every message between
/// transmit and dispatch waits in one slot pool, so delivery events capture
/// 16 trivially-copyable bytes and an inbox is a FIFO chain of pool slots.
///
/// Agent records live in generation-tagged slab storage (DESIGN.md §15):
/// 32-byte `Slot`s (owning agent pointer, node mirror, generation, lifecycle
/// flags, inbox chain) in fixed-size chunks that are never copied, so a
/// record stays where it was installed. The id allocated k-th lives in slot
/// k − 1, so an id is found by inverting its mix to that ordinal and reading
/// one slot. A disposed agent's slot stays vacant for good. Scheduled events
/// capture `{slot, generation}` — validity is one slot probe.
class AgentSystem {
 public:
  struct Config {
    /// CPU time an agent spends handling one message.
    sim::SimTime service_time = sim::SimTime::micros(400);

    /// Assign uniformly-mixed agent ids (see `AgentId` docs). Tests may
    /// disable this to get small sequential ids.
    bool mixed_ids = true;

    /// Allocate the record chunks for this many agents up front (0 = grow
    /// on demand). Million-agent runs set this so the install storm never
    /// grows them mid-run.
    std::size_t reserve_agents = 0;
  };

  AgentSystem(sim::Simulator& simulator, net::Network& network);
  AgentSystem(sim::Simulator& simulator, net::Network& network,
              Config config);
  ~AgentSystem();
  AgentSystem(const AgentSystem&) = delete;
  AgentSystem& operator=(const AgentSystem&) = delete;

  sim::Simulator& simulator() noexcept { return simulator_; }
  net::Network& network() noexcept { return network_; }

  /// --- Message-plane transport seam (DESIGN.md §17) ---------------------
  /// Every transmission the platform makes — messages, bounces, migrations —
  /// samples faults/latency and counts deliveries through this seam. The
  /// default backend is a `net::SimTransport` over `network()`, which is
  /// bit-identical to calling the network directly (fixed-seed
  /// test-enforced). Tests and tracing shims may install a decorator; the
  /// replacement must report the same `node_count()` and must be swapped in
  /// before any traffic flows.
  net::Transport& transport() noexcept { return *transport_; }
  void set_transport(net::Transport& transport) noexcept {
    transport_ = &transport;
  }
  sim::SimTime now() const noexcept { return simulator_.now(); }
  std::size_t node_count() const noexcept { return network_.node_count(); }
  const Config& config() const noexcept { return config_; }
  const PlatformStats& stats() const noexcept { return stats_; }

  /// Create an agent of type `T` at `node`; `on_start` runs asynchronously
  /// (next simulator event). Returns a reference owned by the system; the
  /// reference stays valid until `dispose`.
  template <typename T, typename... Args>
  T& create(net::NodeId node, Args&&... args) {
    auto owned = std::make_unique<T>(std::forward<Args>(args)...);
    T& agent = *owned;
    install(std::move(owned), node);
    return agent;
  }

  /// Destroy an agent. Its queued messages bounce; pending RPCs it issued
  /// are dropped.
  void dispose(AgentId id);

  /// Start migrating an agent to `destination`. The agent disappears from
  /// its node immediately and reappears (triggering `on_arrival`) after the
  /// transfer latency. Throws when the agent is unknown or already in
  /// transit.
  void migrate(AgentId id, net::NodeId destination);

  /// Fire-and-forget message.
  void send(AgentId from, const AgentAddress& to, util::PayloadBox body,
            std::size_t wire_bytes);

  /// Request/response. `callback` fires exactly once: with the reply, a
  /// bounce, or a timeout. Replies route to the callback, not to
  /// `on_message`.
  void request(AgentId from, const AgentAddress& to, util::PayloadBox body,
               std::size_t wire_bytes, RpcCallback callback,
               sim::SimTime timeout = kDefaultRpcTimeout);

  /// Respond to a request received in `on_message`.
  void reply(const Message& request, AgentId from, util::PayloadBox body,
             std::size_t wire_bytes);

  /// --- Core-layer stats hooks -------------------------------------------
  /// Called by the update-batching layer when it flushes a batch that
  /// absorbed `coalesced` updates which would otherwise have been messages.
  void note_batch_flush(std::uint64_t coalesced) noexcept {
    ++stats_.batch_flushes;
    stats_.messages_coalesced += coalesced;
  }

  /// Node-local residency check: is `agent` currently hosted *at `node`*?
  /// Unlike the global oracles below, this is information the node itself
  /// holds (the runtime knows its residents), so per-node infrastructure —
  /// an LHAgent answering a location probe (DESIGN.md §12) — may consult it
  /// for its own node without any communication. An agent in transit is
  /// resident nowhere.
  bool hosts(net::NodeId node, AgentId agent) const noexcept;

  /// --- Introspection (test oracle / benches; not used by protocols) -----
  bool exists(AgentId id) const noexcept;
  bool in_transit(AgentId id) const noexcept;

  /// Ground-truth node of an agent (nullopt while in transit or unknown).
  std::optional<net::NodeId> node_of(AgentId id) const noexcept;

  /// Agent pointer for white-box assertions; nullptr if disposed.
  Agent* find(AgentId id) noexcept;

  std::size_t live_agent_count() const noexcept {
    return stats_.agents_created - stats_.agents_disposed;
  }

  /// Number of messages waiting in an agent's inbox (including the one in
  /// service).
  std::size_t inbox_depth(AgentId id) const noexcept;

  /// Estimate of the platform's resident heap footprint: record slab and
  /// RPC table slots and the message pool. Counts capacities (what is
  /// allocated), not sizes (what is momentarily occupied), because pooled
  /// capacity is what the process actually holds at steady state. O(1).
  std::size_t estimated_resident_bytes() const noexcept;

  /// The same estimate, itemized by subsystem.
  MemoryBreakdown memory_breakdown() const noexcept;

  /// Allocate the record chunks for `agents` installs (also reachable via
  /// `Config::reserve_agents`). Purely an allocation hint: trajectories are
  /// identical with or without it.
  void reserve(std::size_t agents);

 private:
  enum class State : std::uint8_t { kActive, kInTransit };

  static constexpr std::uint32_t kNoSlot = 0xffffffff;
  static constexpr std::uint32_t kNoRecord = 0xffffffff;

  /// Per-agent record: everything the delivery and serve paths touch,
  /// packed into half a cache line with the owning agent pointer. A vacant
  /// slot (its agent disposed) has no agent.
  struct Slot {
    std::unique_ptr<Agent> agent;
    /// Mirror of `Agent::node_` (the system is the only writer of both), so
    /// residency checks never touch the agent object. `kNoNode` while in
    /// transit.
    net::NodeId node = net::kNoNode;
    /// Bumped on migrate and dispose so stale scheduled events (which
    /// capture `{slot, generation}`) become no-ops — the slab analogue of
    /// the event pool's generation tags.
    std::uint32_t generation = 0;
    State state = State::kActive;
    bool serving = false;
    /// Teardown in progress: reentrant dispose of the same id is a no-op.
    bool disposing = false;
    /// Inbox: a FIFO chain of `in_flight_` slots linked through
    /// `InFlight::next`, oldest first. `inbox_tail` is stale while empty.
    std::uint32_t inbox_head = kNoSlot;
    std::uint32_t inbox_tail = kNoSlot;
    std::uint32_t inbox_size = 0;
  };
  static_assert(sizeof(Slot) == 32, "two records per cache line");

  /// Records live in chunks of 128 slots (4 KiB): small enough that a
  /// few-hundred-agent system allocates little past its population, and
  /// never copied, so a `Slot&` stays valid across agent callbacks.
  static constexpr std::uint32_t kChunkBits = 7;
  static constexpr std::uint32_t kChunkSlots = 1u << kChunkBits;
  using Chunk = std::array<Slot, kChunkSlots>;

  struct PendingRpc {
    AgentId from = kNoAgent;
    RpcCallback callback;
    sim::EventId timeout_event = sim::kInvalidEvent;
  };

  /// A message between transmit and dispatch. Slots are pooled so the
  /// simulator event only carries {system, slot, node} — small enough for
  /// the engine's inline handler storage, so the hot path never allocates.
  /// A message is written into its slot once and never copied: delivery
  /// links the slot onto the recipient's inbox chain. `next` is the
  /// free-list link while free, the burst-chain link while in flight, and
  /// the inbox-chain link while queued.
  struct InFlight {
    Message message;
    std::uint32_t next = 0;
    std::uint8_t remaining = 0;
  };

  /// Scheduled delivery of one pooled in-flight message (the duplicated-
  /// copy path): 16 trivially-copyable bytes, so the simulator stores and
  /// replays it without touching the heap.
  struct DeliveryEvent {
    AgentSystem* system;
    std::uint32_t slot;
    net::NodeId node;

    void operator()() const { system->on_delivery(slot, node); }
  };

  /// Scheduled delivery of a chain of coalesced messages bound for the same
  /// node at the same instant. A burst of k messages costs one simulator
  /// event instead of k; `transmit` only appends when that merge is provably
  /// order-preserving (see the checks there).
  struct BurstEvent {
    AgentSystem* system;
    std::uint32_t head;
    net::NodeId node;

    void operator()() const { system->on_burst(head, node); }
  };

  /// Scheduled arrival of one copy of a migrating agent: 24
  /// trivially-copyable bytes, so a migration never touches the heap.
  struct ArrivalEvent {
    AgentSystem* system;
    std::uint32_t slot;
    std::uint32_t generation;
    net::NodeId source;
    net::NodeId destination;

    void operator()() const {
      system->on_arrival(slot, generation, source, destination);
    }
  };

  void install(std::unique_ptr<Agent> owned, net::NodeId node);
  AgentId allocate_id();

  /// id → slot index (its allocation ordinal − 1), `kNoRecord` when the id
  /// was never handed out or its agent is disposed.
  std::uint32_t record_index(AgentId id) const noexcept;
  const Slot* find_record(AgentId id) const noexcept;
  Slot& record_at(std::uint32_t slot) noexcept {
    return (*chunks_[slot >> kChunkBits])[slot & (kChunkSlots - 1)];
  }
  const Slot& record_at(std::uint32_t slot) const noexcept {
    return (*chunks_[slot >> kChunkBits])[slot & (kChunkSlots - 1)];
  }

  void ship_migration(std::uint32_t slot, std::uint32_t generation,
                      net::NodeId source, net::NodeId destination,
                      std::size_t bytes);
  void on_arrival(std::uint32_t slot, std::uint32_t generation,
                  net::NodeId source, net::NodeId destination);
  void transmit(Message message, net::NodeId to_node);
  void on_delivery(std::uint32_t slot, net::NodeId node);
  void on_burst(std::uint32_t head, net::NodeId node);
  void deliver(net::NodeId node, std::uint32_t slot);
  void enqueue(std::uint32_t target, std::uint32_t slot);
  void serve_next(std::uint32_t slot, std::uint32_t generation);
  void dispatch(Agent& agent, Message& message);
  void bounce(const Message& message);
  void complete_rpc(std::uint64_t correlation, RpcResult result);
  void drop_rpcs_from(AgentId id);

  std::uint32_t acquire_slot();
  void release_slot(std::uint32_t slot) noexcept;
  /// Move the message out of `slot` and free the slot.
  Message take_message(std::uint32_t slot);
  /// Empty `target`'s inbox, bouncing each message in FIFO order.
  void bounce_inbox(std::uint32_t target);

  /// Record a new resident-bytes high-water mark. Called at allocation
  /// growth points only, which is where the (capacity-counting) estimate can
  /// actually move up.
  void note_memory_high_water() noexcept;

  sim::Simulator& simulator_;
  net::Network& network_;
  /// Default message-plane backend (wraps `network_`) and the seam pointer
  /// every transmission goes through. `set_transport` repoints the latter.
  net::SimTransport sim_transport_;
  net::Transport* transport_;
  Config config_;
  PlatformStats stats_;

  std::uint64_t correlation_counter_ = 0;

  /// Agent records, slab style: the id allocated k-th lives in slot k − 1,
  /// at `record_at(k - 1)`, in chunk `(k - 1) >> kChunkBits`, and its slot
  /// is never handed to another id; `slot_count_` ids have been allocated.
  /// Chunks are added one at a time and freed only with the system.
  std::vector<std::unique_ptr<Chunk>> chunks_;
  std::uint32_t slot_count_ = 0;

  util::FlatMap<std::uint64_t, PendingRpc, 0> pending_rpcs_;

  std::vector<InFlight> in_flight_;
  std::uint32_t in_flight_free_ = kNoSlot;

  /// The open delivery burst: tail slot of the chain scheduled by
  /// `open_event_` to land on `open_node_` at `open_when_`. `open_stamp_`
  /// snapshots the simulator's schedule stamp right after that event was
  /// scheduled; any later schedule invalidates the merge (order would no
  /// longer be provably identical), as does the event firing.
  std::uint32_t open_tail_ = kNoSlot;
  net::NodeId open_node_ = 0;
  sim::SimTime open_when_ = sim::SimTime::zero();
  sim::EventId open_event_ = sim::kInvalidEvent;
  std::uint64_t open_stamp_ = 0;

  /// Agents disposed from inside their own callbacks wait here until the
  /// current event finishes.
  std::vector<std::unique_ptr<Agent>> graveyard_;
  bool graveyard_sweep_scheduled_ = false;
};

}  // namespace agentloc::platform
