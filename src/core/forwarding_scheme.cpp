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
    platform::AgentSystem& system, net::NodeId name_service_node)
    : system_(system) {
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
  const net::NodeId node = self.node();
  if (node == net::kNoNode) {
    done(false);
    return;
  }
  const std::uint64_t seq = self.next_report_seq();
  last_node_[self.id()] = node;
  system_.send(self.id(), forwarder_at(node),
               PresenceNotice{self.id(), true, seq},
               PresenceNotice::kWireBytes);
  system_.request(
      self.id(), name_service_address_,
      RegisterRequest{LocationEntry{self.id(), node, seq}},
      RegisterRequest::kWireBytes,
      [done = std::move(done)](platform::RpcResult result) {
        done(result.ok());
      },
      kRpcTimeout);
}

void ForwardingLocationScheme::update_location(platform::Agent& self,
                                               std::function<void(bool)> done) {
  ++stats_.updates;
  const net::NodeId node = self.node();
  if (node == net::kNoNode) {
    done(false);
    return;
  }
  const std::uint64_t seq = self.next_report_seq();
  const net::NodeId* previous = last_node_.find(self.id());
  if (previous != nullptr && *previous != node) {
    // Leave a pointer behind; no name-service update (Voyager's lazy mode —
    // the name service learns on the next successful chase).
    system_.send(self.id(), forwarder_at(*previous),
                 SetForward{self.id(), node, seq}, SetForward::kWireBytes);
  }
  last_node_[self.id()] = node;
  system_.send(self.id(), forwarder_at(node),
               PresenceNotice{self.id(), true, seq},
               PresenceNotice::kWireBytes);
  done(true);
}

void ForwardingLocationScheme::deregister_agent(platform::Agent& self) {
  ++stats_.deregisters;
  const net::NodeId node = self.node();
  if (node == net::kNoNode) return;
  const std::uint64_t seq = self.next_report_seq();
  system_.send(self.id(), forwarder_at(node),
               PresenceNotice{self.id(), false, seq},
               PresenceNotice::kWireBytes);
  system_.send(self.id(), name_service_address_,
               DeregisterRequest{self.id(), seq},
               DeregisterRequest::kWireBytes);
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
      kRpcTimeout);
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
          // Lazy name-service refresh (path compression for future chases)
          // at the target's next seq; a target already gone needs none.
          if (platform::Agent* found = system_.find(target)) {
            system_.send(requester, name_service_address_,
                         UpdateRequest{LocationEntry{
                             target, reply->next, found->next_report_seq()}},
                         UpdateRequest::kWireBytes);
          }
          done(LocateOutcome{true, reply->next, attempt});
          return;
        }
        chase(requester, target, reply->next, hops + 1, attempt + 1,
              std::move(done));
      },
      kRpcTimeout);
}

}  // namespace agentloc::core
