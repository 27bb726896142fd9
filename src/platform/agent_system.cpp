#include "platform/agent_system.hpp"

#include <algorithm>
#include <ostream>
#include <stdexcept>
#include <type_traits>

#include "util/logging.hpp"
#include "util/rng.hpp"

namespace agentloc::platform {
namespace {

/// Delay before re-sending a migration the fault plan swallowed (migration
/// is modelled as reliable transport, e.g. TCP retries).
constexpr sim::SimTime kMigrationRetry = sim::SimTime::millis(5);

}  // namespace

std::ostream& operator<<(std::ostream& os, const AgentAddress& address) {
  return os << "node" << address.node << "/agent" << address.agent;
}

AgentSystem::AgentSystem(sim::Simulator& simulator, net::Network& network)
    : AgentSystem(simulator, network, Config{}) {}

AgentSystem::AgentSystem(sim::Simulator& simulator, net::Network& network,
                         Config config)
    : simulator_(simulator),
      network_(network),
      sim_transport_(network),
      transport_(&sim_transport_),
      config_(config) {
  if (config_.reserve_agents > 0) reserve(config_.reserve_agents);
}

AgentSystem::~AgentSystem() = default;

void AgentSystem::reserve(std::size_t agents) {
  index_.reserve(agents);
  slots_.reserve(agents);
  agents_.reserve(agents);
}

AgentId AgentSystem::allocate_id() {
  for (;;) {
    ++id_counter_;
    const AgentId id =
        config_.mixed_ids ? util::mix64(id_counter_) : id_counter_;
    if (id != kNoAgent && !index_.contains(id)) return id;
  }
}

std::uint32_t AgentSystem::record_index(AgentId id) const noexcept {
  const std::uint32_t* slot = index_.find(id);
  return slot == nullptr ? kNoRecord : *slot;
}

AgentSystem::Slot* AgentSystem::find_record(AgentId id) noexcept {
  const std::uint32_t slot = record_index(id);
  return slot == kNoRecord ? nullptr : &slots_[slot];
}

const AgentSystem::Slot* AgentSystem::find_record(AgentId id) const noexcept {
  const std::uint32_t slot = record_index(id);
  return slot == kNoRecord ? nullptr : &slots_[slot];
}

std::uint32_t AgentSystem::acquire_record_slot() {
  if (!free_slots_.empty()) {
    const std::uint32_t slot = free_slots_.back();
    free_slots_.pop_back();
    return slot;
  }
  slots_.emplace_back();
  agents_.emplace_back();
  return static_cast<std::uint32_t>(slots_.size() - 1);
}

void AgentSystem::release_record_slot(std::uint32_t slot) noexcept {
  Slot& record = slots_[slot];
  record.id = kNoAgent;
  record.node = net::kNoNode;
  // Invalidate every event still holding this slot's previous tenancy —
  // whoever is installed here next starts with a fresh generation.
  ++record.generation;
  record.state = State::kActive;
  record.serving = false;
  record.disposing = false;
  free_slots_.push_back(slot);
}

std::uint32_t AgentSystem::acquire_slot() {
  if (in_flight_free_ != kNoSlot) {
    const std::uint32_t slot = in_flight_free_;
    in_flight_free_ = in_flight_[slot].next;
    return slot;
  }
  in_flight_.emplace_back();
  note_memory_high_water();
  return static_cast<std::uint32_t>(in_flight_.size() - 1);
}

void AgentSystem::release_slot(std::uint32_t slot) noexcept {
  in_flight_[slot].next = in_flight_free_;
  in_flight_free_ = slot;
}

Message AgentSystem::take_message(std::uint32_t slot) {
  Message message = std::move(in_flight_[slot].message);
  release_slot(slot);
  return message;
}

void AgentSystem::bounce_inbox(std::uint32_t target) {
  // Detach the whole chain before the first bounce: each bounce transmits
  // into the pool, which may reuse the slot just freed or reallocate.
  std::uint32_t slot = slots_[target].inbox_head;
  slots_[target].inbox_head = kNoSlot;
  slots_[target].inbox_size = 0;
  while (slot != kNoSlot) {
    const std::uint32_t next = in_flight_[slot].next;
    bounce(take_message(slot));
    slot = next;
  }
}

void AgentSystem::install(std::unique_ptr<Agent> owned, net::NodeId node) {
  const AgentId id = allocate_id();
  if (node >= transport_->node_count()) {
    throw std::out_of_range("AgentSystem::create: node out of range");
  }
  Agent& agent = *owned;
  agent.system_ = this;
  agent.id_ = id;
  agent.node_ = node;

  const std::uint32_t slot = acquire_record_slot();
  Slot& record = slots_[slot];
  record.id = id;
  record.node = node;
  agents_[slot] = std::move(owned);
  index_.emplace(id, slot);
  note_memory_high_water();
  ++stats_.agents_created;

  const std::uint32_t generation = record.generation;
  simulator_.schedule_after(sim::SimTime::zero(), [this, slot, generation] {
    if (slots_[slot].generation != generation) return;
    agents_[slot]->on_start();
  });
}

void AgentSystem::dispose(AgentId id) {
  const std::uint32_t slot = record_index(id);
  if (slot == kNoRecord || slots_[slot].disposing) return;
  slots_[slot].disposing = true;  // reentrant dispose(id) becomes a no-op
  ++slots_[slot].generation;

  // Queued messages can no longer be served; bounce them to their senders.
  bounce_inbox(slot);

  // The dropped-RPC callbacks and on_dispose may create or dispose other
  // agents; erasure never moves slab records, but growth may reallocate the
  // arrays, so re-index `slots_[slot]` after each.
  drop_rpcs_from(id);

  // The contract protocol teardown relies on: on_dispose runs before
  // removal, so the agent can still send (e.g. deregister itself).
  agents_[slot]->on_dispose();

  agents_[slot]->system_ = nullptr;

  // The agent may be disposing itself from inside one of its own callbacks;
  // defer destruction until the stack unwinds.
  graveyard_.push_back(std::move(agents_[slot]));
  index_.erase(id);
  release_record_slot(slot);
  ++stats_.agents_disposed;
  if (!graveyard_sweep_scheduled_) {
    graveyard_sweep_scheduled_ = true;
    simulator_.schedule_after(sim::SimTime::zero(), [this] {
      graveyard_sweep_scheduled_ = false;
      graveyard_.clear();
    });
  }
}

void AgentSystem::migrate(AgentId id, net::NodeId destination) {
  if (destination >= transport_->node_count()) {
    throw std::out_of_range("AgentSystem::migrate: node out of range");
  }
  const std::uint32_t slot = record_index(id);
  if (slot == kNoRecord) {
    throw std::logic_error("AgentSystem::migrate: unknown agent");
  }
  Slot& record = slots_[slot];
  if (record.state != State::kActive) {
    throw std::logic_error("AgentSystem::migrate: agent already in transit");
  }

  const net::NodeId source = record.node;
  ++record.generation;
  record.state = State::kInTransit;
  record.serving = false;
  bounce_inbox(slot);

  record.node = net::kNoNode;
  agents_[slot]->node_ = net::kNoNode;
  ++stats_.migrations_started;
  ship_migration(slot, record.generation, source, destination,
                 agents_[slot]->serialized_size());
}

void AgentSystem::ship_migration(std::uint32_t slot, std::uint32_t generation,
                                 net::NodeId source, net::NodeId destination,
                                 std::size_t bytes) {
  static_assert(sizeof(ArrivalEvent) <= 24 &&
                    std::is_trivially_copyable_v<ArrivalEvent>,
                "arrival event must stay tiny and memcpy-relocatable");
  const net::TransmitPlan plan =
      transport_->plan_transmission(source, destination, bytes);
  for (int copy = 0; copy < plan.copies; ++copy) {
    simulator_.schedule_after(
        plan.delay[copy],
        ArrivalEvent{this, slot, generation, source, destination});
  }
  if (plan.copies == 0) {
    // Migration rides reliable transport: retry until the fault plan lets
    // it through (a partitioned destination delays, never loses, the agent).
    simulator_.schedule_after(
        kMigrationRetry,
        [this, slot, generation, source, destination, bytes] {
          if (slots_[slot].generation != generation) return;
          ship_migration(slot, generation, source, destination, bytes);
        });
  }
}

void AgentSystem::on_arrival(std::uint32_t slot, std::uint32_t generation,
                             net::NodeId source, net::NodeId destination) {
  transport_->note_delivered(destination);
  Slot& record = slots_[slot];
  if (record.generation != generation) return;
  // A fault plan may duplicate the transfer; only the first copy installs
  // the agent.
  if (record.state != State::kInTransit) return;
  record.state = State::kActive;
  record.node = destination;
  agents_[slot]->node_ = destination;
  ++stats_.migrations_completed;
  agents_[slot]->on_arrival(source);
}

void AgentSystem::send(AgentId from, const AgentAddress& to,
                       util::PayloadBox body, std::size_t wire_bytes) {
  const Slot* sender = find_record(from);
  if (sender == nullptr || sender->state != State::kActive) {
    throw std::logic_error("AgentSystem::send: sender not active");
  }
  Message message;
  message.from = from;
  message.from_node = sender->node;
  message.to = to.agent;
  message.wire_bytes = wire_bytes;
  message.body = std::move(body);
  transmit(std::move(message), to.node);
}

void AgentSystem::request(AgentId from, const AgentAddress& to,
                          util::PayloadBox body, std::size_t wire_bytes,
                          RpcCallback callback,
                          sim::SimTime timeout) {
  const Slot* sender = find_record(from);
  if (sender == nullptr || sender->state != State::kActive) {
    throw std::logic_error("AgentSystem::request: sender not active");
  }
  if (sender->disposing) {
    // drop_rpcs_from already ran for this agent, so an RPC registered now
    // would never be dropped and its callback would fire after the agent is
    // destroyed (retry loops reach here when a drop-induced failure resends
    // from inside dispose). Fail synchronously while the agent is alive;
    // retry chains then burn their attempts and give up reentrantly.
    ++stats_.rpc_delivery_failures;
    RpcResult result;
    result.status = RpcResult::Status::kDeliveryFailure;
    callback(std::move(result));
    return;
  }
  const net::NodeId from_node = sender->node;
  const std::uint64_t correlation = ++correlation_counter_;

  PendingRpc pending;
  pending.from = from;
  pending.callback = std::move(callback);
  pending.timeout_event = simulator_.schedule_after(
      timeout, [this, correlation] {
        PendingRpc* rpc = pending_rpcs_.find(correlation);
        if (rpc == nullptr) return;
        RpcCallback cb = std::move(rpc->callback);
        pending_rpcs_.erase(correlation);
        ++stats_.rpc_timeouts;
        RpcResult result;
        result.status = RpcResult::Status::kTimeout;
        cb(std::move(result));
      });
  pending_rpcs_.emplace(correlation, std::move(pending));

  Message message;
  message.from = from;
  message.from_node = from_node;
  message.to = to.agent;
  message.correlation = correlation;
  message.wire_bytes = wire_bytes;
  message.body = std::move(body);
  transmit(std::move(message), to.node);
}

void AgentSystem::reply(const Message& request, AgentId from,
                        util::PayloadBox body, std::size_t wire_bytes) {
  const Slot* sender = find_record(from);
  if (sender == nullptr || sender->state != State::kActive) {
    throw std::logic_error("AgentSystem::reply: sender not active");
  }
  Message message;
  message.from = from;
  message.from_node = sender->node;
  message.to = request.from;
  message.correlation = request.correlation;
  message.is_reply = true;
  message.wire_bytes = wire_bytes;
  message.body = std::move(body);
  transmit(std::move(message), request.from_node);
}

void AgentSystem::transmit(Message message, net::NodeId to_node) {
  static_assert(sizeof(DeliveryEvent) <= 16, "delivery event must stay tiny");
  static_assert(std::is_trivially_copyable_v<DeliveryEvent>,
                "delivery event must be memcpy-relocatable");
  static_assert(sizeof(BurstEvent) <= 16 &&
                    std::is_trivially_copyable_v<BurstEvent>,
                "burst event must stay tiny and memcpy-relocatable");
  ++stats_.messages_sent;
  const net::TransmitPlan plan = transport_->plan_transmission(
      message.from_node, to_node, message.wire_bytes);
  if (plan.copies == 0) return;  // swallowed by the fault plan

  const std::uint32_t slot = acquire_slot();
  InFlight& flight = in_flight_[slot];
  flight.message = std::move(message);
  flight.next = kNoSlot;
  flight.remaining = static_cast<std::uint8_t>(plan.copies);

  if (plan.copies == 1) {
    // Coalesce bursts: when this message lands on the same node at the same
    // instant as the open burst AND nothing has been scheduled since that
    // burst's event (so the chained messages' sequence numbers would have
    // been consecutive anyway), append to the chain instead of paying for
    // another simulator event. Both checks are required for exact order
    // preservation; `pending` also guards against appending to a chain
    // whose event is firing right now (its slots are already relinked onto
    // inboxes or freed).
    const sim::SimTime when = simulator_.now() + plan.delay[0];
    if (open_tail_ != kNoSlot && open_node_ == to_node && open_when_ == when &&
        simulator_.schedule_stamp() == open_stamp_ &&
        simulator_.pending(open_event_)) {
      in_flight_[open_tail_].next = slot;
      open_tail_ = slot;
      return;
    }
    open_event_ = simulator_.schedule_after(plan.delay[0],
                                            BurstEvent{this, slot, to_node});
    open_stamp_ = simulator_.schedule_stamp();
    open_tail_ = slot;
    open_node_ = to_node;
    open_when_ = when;
    return;
  }
  for (int copy = 0; copy < plan.copies; ++copy) {
    simulator_.schedule_after(plan.delay[copy],
                              DeliveryEvent{this, slot, to_node});
  }
}

void AgentSystem::on_delivery(std::uint32_t slot, net::NodeId node) {
  transport_->note_delivered(node);
  if (in_flight_[slot].remaining > 1) {
    // A duplicated send: deliver a copy from a fresh slot and keep the
    // original for the copies still in flight. `acquire_slot` may
    // reallocate the pool, so index it afresh.
    --in_flight_[slot].remaining;
    const std::uint32_t copy = acquire_slot();
    in_flight_[copy].message = in_flight_[slot].message;
    deliver(node, copy);
    return;
  }
  deliver(node, slot);
}

void AgentSystem::on_burst(std::uint32_t head, net::NodeId node) {
  // Walk the chain in append order (= original per-message event order).
  // Read `next` before `deliver` relinks the slot onto an inbox chain or
  // frees it; a bounce reenters `transmit`, which may grow the pool or
  // reuse freed slots.
  std::uint32_t slot = head;
  while (slot != kNoSlot) {
    const std::uint32_t next = in_flight_[slot].next;
    transport_->note_delivered(node);
    deliver(node, slot);
    slot = next;
  }
}

void AgentSystem::deliver(net::NodeId node, std::uint32_t slot) {
  const std::uint32_t target = record_index(in_flight_[slot].message.to);
  const bool present = target != kNoRecord &&
                       slots_[target].state == State::kActive &&
                       slots_[target].node == node;
  if (!present) {
    bounce(take_message(slot));
    return;
  }
  enqueue(target, slot);
}

void AgentSystem::enqueue(std::uint32_t target, std::uint32_t slot) {
  in_flight_[slot].next = kNoSlot;
  Slot& record = slots_[target];
  if (record.inbox_size == 0) {
    record.inbox_head = slot;
  } else {
    in_flight_[record.inbox_tail].next = slot;
  }
  record.inbox_tail = slot;
  ++record.inbox_size;
  stats_.peak_inbox_depth =
      std::max<std::size_t>(stats_.peak_inbox_depth, record.inbox_size);
  if (!record.serving) {
    record.serving = true;
    const std::uint32_t generation = record.generation;
    simulator_.schedule_after(config_.service_time, [this, target, generation] {
      serve_next(target, generation);
    });
  }
}

void AgentSystem::serve_next(std::uint32_t slot, std::uint32_t generation) {
  Slot* record = &slots_[slot];
  if (record->generation != generation || !record->serving ||
      record->inbox_size == 0) {
    return;
  }
  // Unlink the head and free its pool slot before dispatch: the handler may
  // transmit, which can grow (reallocate) the pool.
  const std::uint32_t head = record->inbox_head;
  record->inbox_head = in_flight_[head].next;
  --record->inbox_size;
  Message message = take_message(head);
  ++stats_.messages_processed;
  dispatch(*agents_[slot], message);

  // The handler may have installed agents, which can reallocate the slab
  // arrays — re-index (erasure never moves records, so the slot itself is
  // still ours unless the generation moved).
  record = &slots_[slot];
  if (record->generation != generation) return;
  if (record->inbox_size == 0) {
    record->serving = false;
  } else {
    simulator_.schedule_after(config_.service_time, [this, slot, generation] {
      serve_next(slot, generation);
    });
  }
}

void AgentSystem::dispatch(Agent& agent, Message& message) {
  if (message.is_reply) {
    RpcResult result;
    result.status = RpcResult::Status::kOk;
    result.reply = std::move(message);
    complete_rpc(result.reply.correlation, std::move(result));
    return;
  }
  if (const auto* failure = message.body_as<DeliveryFailure>()) {
    if (failure->correlation != 0 &&
        pending_rpcs_.contains(failure->correlation)) {
      RpcResult result;
      result.status = RpcResult::Status::kDeliveryFailure;
      ++stats_.rpc_delivery_failures;
      complete_rpc(failure->correlation, std::move(result));
    } else {
      agent.on_delivery_failure(*failure);
    }
    return;
  }
  agent.on_message(message);
}

void AgentSystem::bounce(const Message& message) {
  ++stats_.messages_bounced;
  // System messages (bounces themselves) are never bounced back: no loops.
  if (message.from == kNoAgent || message.body.holds<DeliveryFailure>()) {
    return;
  }
  Message notice;
  notice.from = kNoAgent;
  notice.from_node = message.from_node;  // charged as a remote round trip
  notice.to = message.from;
  notice.wire_bytes = 64;
  DeliveryFailure failure;
  failure.attempted = AgentAddress{net::kNoNode, message.to};
  failure.correlation = message.correlation;
  notice.body = failure;
  transmit(std::move(notice), message.from_node);
}

void AgentSystem::complete_rpc(std::uint64_t correlation, RpcResult result) {
  PendingRpc* rpc = pending_rpcs_.find(correlation);
  if (rpc == nullptr) return;  // already timed out or completed
  simulator_.cancel(rpc->timeout_event);
  RpcCallback callback = std::move(rpc->callback);
  pending_rpcs_.erase(correlation);
  callback(std::move(result));
}

void AgentSystem::drop_rpcs_from(AgentId id) {
  // Complete (rather than leak) the requests of a disposing agent: the
  // callbacks are plain closures that may carry continuations beyond the
  // agent itself, and they are written to tolerate the agent being gone.
  std::vector<std::pair<std::uint64_t, RpcCallback>> doomed;
  pending_rpcs_.for_each([&](std::uint64_t correlation, PendingRpc& rpc) {
    if (rpc.from != id) return;
    simulator_.cancel(rpc.timeout_event);
    doomed.emplace_back(correlation, std::move(rpc.callback));
  });
  // Erase before invoking anything: callbacks may issue new RPCs and must
  // not observe (or collide with) the half-dead entries.
  for (const auto& [correlation, callback] : doomed) {
    pending_rpcs_.erase(correlation);
  }
  for (auto& [correlation, callback] : doomed) {
    RpcResult result;
    result.status = RpcResult::Status::kDeliveryFailure;
    ++stats_.rpc_delivery_failures;
    callback(std::move(result));
  }
}

bool AgentSystem::hosts(net::NodeId node, AgentId agent) const noexcept {
  const Slot* record = find_record(agent);
  return record != nullptr && record->state == State::kActive &&
         record->node == node;
}

bool AgentSystem::exists(AgentId id) const noexcept {
  return index_.contains(id);
}

bool AgentSystem::in_transit(AgentId id) const noexcept {
  const Slot* record = find_record(id);
  return record != nullptr && record->state == State::kInTransit;
}

std::optional<net::NodeId> AgentSystem::node_of(AgentId id) const noexcept {
  const Slot* record = find_record(id);
  if (record == nullptr || record->state != State::kActive) {
    return std::nullopt;
  }
  return record->node;
}

Agent* AgentSystem::find(AgentId id) noexcept {
  const std::uint32_t slot = record_index(id);
  return slot == kNoRecord ? nullptr : agents_[slot].get();
}

std::size_t AgentSystem::inbox_depth(AgentId id) const noexcept {
  const Slot* record = find_record(id);
  return record == nullptr ? 0 : record->inbox_size;
}

MemoryBreakdown AgentSystem::memory_breakdown() const noexcept {
  MemoryBreakdown memory;
  // Slot sizes count key + value, the unit FlatMap actually allocates.
  memory.agent_records =
      slots_.capacity() * sizeof(Slot) +
      agents_.capacity() * sizeof(std::unique_ptr<Agent>) +
      free_slots_.capacity() * sizeof(std::uint32_t) +
      index_.capacity() * (sizeof(AgentId) + sizeof(std::uint32_t));
  memory.rpc_table =
      pending_rpcs_.capacity() * (sizeof(std::uint64_t) + sizeof(PendingRpc));
  memory.in_flight = in_flight_.capacity() * sizeof(InFlight);
  return memory;
}

std::size_t AgentSystem::estimated_resident_bytes() const noexcept {
  return memory_breakdown().total();
}

void AgentSystem::note_memory_high_water() noexcept {
  stats_.peak_resident_bytes =
      std::max(stats_.peak_resident_bytes, estimated_resident_bytes());
}

}  // namespace agentloc::platform
