#include "core/forwarding_scheme.hpp"

#include <utility>

namespace agentloc::core {

void ForwarderAgent::on_message(const platform::Message& message) {
  if (const auto* forward = message.body_as<SetForward>()) {
    Slot& slot = state_[forward->agent];
    if (forward->seq >= slot.seq) {
      slot.here = false;
      slot.next = forward->next;
      slot.seq = forward->seq;
    }
  } else if (const auto* presence = message.body_as<PresenceNotice>()) {
    Slot& slot = state_[presence->agent];
    if (presence->seq >= slot.seq) {
      slot.here = presence->here;
      if (presence->here) slot.next = net::kNoNode;
      slot.seq = presence->seq;
    }
  } else if (const auto* chase = message.body_as<ChaseRequest>()) {
    ChaseReply reply;
    const Slot* slot = state_.find(chase->target);
    if (slot == nullptr) {
      reply.kind = ChaseReply::Kind::kUnknown;
    } else if (slot->here) {
      reply.kind = ChaseReply::Kind::kHere;
      reply.next = node();
    } else if (slot->next != net::kNoNode) {
      reply.kind = ChaseReply::Kind::kForward;
      reply.next = slot->next;
    } else {
      reply.kind = ChaseReply::Kind::kUnknown;
    }
    system().reply(message, id(), reply, ChaseReply::kWireBytes);
  }
}

ForwardingLocationScheme::ForwardingLocationScheme(
    platform::AgentSystem& system, MechanismConfig config,
    net::NodeId name_service_node)
    : system_(system), config_(config) {
  name_service_ = &system_.create<CentralTracker>(name_service_node);
  name_service_address_ =
      platform::AgentAddress{name_service_node, name_service_->id()};
  forwarders_.reserve(system_.node_count());
  for (net::NodeId node = 0; node < system_.node_count(); ++node) {
    forwarders_.push_back(&system_.create<ForwarderAgent>(node));
  }
}

void ForwardingLocationScheme::register_agent(platform::Agent& self,
                                              std::function<void(bool)> done) {
  ++stats_.registers;
  const auto node = system_.node_of(self.id());
  if (!node) {
    done(false);
    return;
  }
  const std::uint64_t seq = ++seqs_[self.id()];
  last_node_[self.id()] = *node;
  system_.send(self.id(), forwarder_at(*node),
               PresenceNotice{self.id(), true, seq},
               PresenceNotice::kWireBytes);
  system_.request(
      self.id(), name_service_address_,
      RegisterRequest{LocationEntry{self.id(), *node, seq}},
      RegisterRequest::kWireBytes,
      [done = std::move(done)](platform::RpcResult result) {
        done(result.ok());
      },
      config_.rpc_timeout);
}

void ForwardingLocationScheme::update_location(platform::Agent& self,
                                               std::function<void(bool)> done) {
  ++stats_.updates;
  const auto node = system_.node_of(self.id());
  if (!node) {
    done(false);
    return;
  }
  const std::uint64_t seq = ++seqs_[self.id()];
  const net::NodeId* previous = last_node_.find(self.id());
  if (previous != nullptr && *previous != *node) {
    // Leave a pointer behind; no name-service update (Voyager's lazy mode —
    // the name service learns on the next successful chase).
    system_.send(self.id(), forwarder_at(*previous),
                 SetForward{self.id(), *node, seq}, SetForward::kWireBytes);
  }
  last_node_[self.id()] = *node;
  system_.send(self.id(), forwarder_at(*node),
               PresenceNotice{self.id(), true, seq},
               PresenceNotice::kWireBytes);
  done(true);
}

void ForwardingLocationScheme::deregister_agent(platform::Agent& self) {
  ++stats_.deregisters;
  const auto node = system_.node_of(self.id());
  if (!node) return;
  const std::uint64_t seq = ++seqs_[self.id()];
  system_.send(self.id(), forwarder_at(*node),
               PresenceNotice{self.id(), false, seq},
               PresenceNotice::kWireBytes);
  system_.send(self.id(), name_service_address_,
               DeregisterRequest{self.id(), seq},
               DeregisterRequest::kWireBytes);
  seqs_.erase(self.id());
  last_node_.erase(self.id());
}

void ForwardingLocationScheme::locate(
    platform::Agent& requester, platform::AgentId target,
    std::function<void(const LocateOutcome&)> done) {
  ++stats_.locates;
  // Phase 1: ask the name service for the last node it heard of.
  system_.request(
      requester.id(), name_service_address_, LocateRequest{target},
      LocateRequest::kWireBytes,
      [this, requester_id = requester.id(), target,
       done = std::move(done)](platform::RpcResult result) mutable {
        if (!result.ok()) {
          ++stats_.timeout_retries;
          ++stats_.locates_failed;
          done(LocateOutcome{false, net::kNoNode, 1});
          return;
        }
        const auto* reply = result.reply.body_as<LocateReply>();
        if (reply == nullptr || reply->status != LocateStatus::kFound) {
          ++stats_.locates_failed;
          done(LocateOutcome{false, net::kNoNode, 1});
          return;
        }
        chase(requester_id, target, reply->node, 0, 2, std::move(done));
      },
      config_.rpc_timeout);
}

void ForwardingLocationScheme::chase(
    platform::AgentId requester, platform::AgentId target, net::NodeId at,
    int hops, int attempt, std::function<void(const LocateOutcome&)> done) {
  if (hops > kMaxHops || !system_.node_of(requester)) {
    ++stats_.locates_failed;
    done(LocateOutcome{false, net::kNoNode, attempt});
    return;
  }
  system_.request(
      requester, forwarder_at(at), ChaseRequest{target},
      ChaseRequest::kWireBytes,
      [this, requester, target, at, hops, attempt,
       done = std::move(done)](platform::RpcResult result) mutable {
        if (!result.ok()) {
          ++stats_.timeout_retries;
          ++stats_.locates_failed;
          done(LocateOutcome{false, net::kNoNode, attempt});
          return;
        }
        const auto* reply = result.reply.body_as<ChaseReply>();
        if (reply == nullptr || reply->kind == ChaseReply::Kind::kUnknown) {
          ++stats_.locates_failed;
          done(LocateOutcome{false, net::kNoNode, attempt});
          return;
        }
        if (reply->kind == ChaseReply::Kind::kHere) {
          ++stats_.locates_found;
          chase_hops_ += static_cast<std::uint64_t>(hops);
          // Lazy name-service refresh (path compression for future chases).
          system_.send(requester, name_service_address_,
                       UpdateRequest{LocationEntry{
                           target, reply->next, ++seqs_[target]}},
                       UpdateRequest::kWireBytes);
          done(LocateOutcome{true, reply->next, attempt});
          return;
        }
        chase(requester, target, reply->next, hops + 1, attempt + 1,
              std::move(done));
      },
      config_.rpc_timeout);
}

}  // namespace agentloc::core
