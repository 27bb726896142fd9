#include "core/home_scheme.hpp"

#include <utility>

namespace agentloc::core {

void CentralTracker::on_message(const platform::Message& message) {
  ++requests_;
  if (const auto* request = message.body_as<RegisterRequest>()) {
    table_.apply(request->entry);
    system().reply(message, id(), UpdateAck{true, 0}, UpdateAck::kWireBytes);
  } else if (const auto* request = message.body_as<UpdateRequest>()) {
    // One-way (the registry is always responsible): no acknowledgement.
    table_.apply(request->entry);
  } else if (const auto* request = message.body_as<LocateRequest>()) {
    LocateReply reply;
    if (const auto entry = table_.find(request->target)) {
      reply.status = LocateStatus::kFound;
      reply.node = entry->node;
    } else {
      reply.status = LocateStatus::kUnknown;
    }
    system().reply(message, id(), reply, LocateReply::kWireBytes);
  } else if (const auto* request = message.body_as<DeregisterRequest>()) {
    table_.remove(request->agent, request->seq);
  }
}

HomeRegistryLocationScheme::HomeRegistryLocationScheme(
    platform::AgentSystem& system, std::size_t registries)
    : system_(system) {
  registries_.reserve(registries);
  for (net::NodeId node = 0; node < registries; ++node) {
    registries_.push_back(&system_.create<CentralTracker>(node));
  }
}

platform::AgentAddress HomeRegistryLocationScheme::home_of(
    platform::AgentId agent) const {
  const auto node = static_cast<net::NodeId>(agent % registries_.size());
  return platform::AgentAddress{node, registries_[node]->id()};
}

void HomeRegistryLocationScheme::register_agent(
    platform::Agent& self, std::function<void(bool)> done) {
  ++stats_.registers;
  send_register(self.id(), self.node(), self.next_report_seq(),
                kMaxLocateRetries, std::move(done));
}

void HomeRegistryLocationScheme::update_location(
    platform::Agent& self, std::function<void(bool)> done) {
  ++stats_.updates;
  if (self.node() != net::kNoNode) {
    system_.send(self.id(), home_of(self.id()),
                 UpdateRequest{LocationEntry{self.id(), self.node(),
                                             self.next_report_seq()}},
                 UpdateRequest::kWireBytes);
  }
  done(true);
}

void HomeRegistryLocationScheme::deregister_agent(platform::Agent& self) {
  ++stats_.deregisters;
  if (self.node() == net::kNoNode) return;
  system_.send(self.id(), home_of(self.id()),
               DeregisterRequest{self.id(), self.next_report_seq()},
               DeregisterRequest::kWireBytes);
}

void HomeRegistryLocationScheme::send_register(
    platform::AgentId self, net::NodeId node, std::uint64_t seq,
    int attempts_left, std::function<void(bool)> done) {
  if (node == net::kNoNode || attempts_left <= 0) {
    done(false);
    return;
  }
  system_.request(
      self, home_of(self),
      RegisterRequest{LocationEntry{self, node, seq}},
      RegisterRequest::kWireBytes,
      [this, self, seq, attempts_left,
       done = std::move(done)](platform::RpcResult result) mutable {
        if (result.ok()) {
          done(true);
          return;
        }
        ++stats_.timeout_retries;
        send_register(self, system_.node_of(self).value_or(net::kNoNode), seq,
                      attempts_left - 1, std::move(done));
      },
      kRpcTimeout);
}

void HomeRegistryLocationScheme::locate(
    platform::Agent& requester, platform::AgentId target,
    std::function<void(const LocateOutcome&)> done) {
  ++stats_.locates;
  locate_attempt(requester.id(), requester.node(), target, 1,
                 std::move(done));
}

void HomeRegistryLocationScheme::locate_attempt(
    platform::AgentId requester, net::NodeId requester_node,
    platform::AgentId target, int attempt,
    std::function<void(const LocateOutcome&)> done) {
  if (attempt > kMaxLocateRetries || requester_node == net::kNoNode) {
    ++stats_.locates_failed;
    done(LocateOutcome{false, net::kNoNode, attempt - 1});
    return;
  }
  system_.request(
      requester, home_of(target), LocateRequest{target},
      LocateRequest::kWireBytes,
      [this, requester, target, attempt,
       done = std::move(done)](platform::RpcResult result) mutable {
        if (result.ok()) {
          if (const auto* reply = result.reply.body_as<LocateReply>();
              reply != nullptr && reply->status == LocateStatus::kFound) {
            ++stats_.locates_found;
            done(LocateOutcome{true, reply->node, attempt});
            return;
          }
        } else {
          ++stats_.timeout_retries;
        }
        system_.simulator().schedule_after(
            kTransientRetryDelay,
            [this, requester, target, attempt,
             done = std::move(done)]() mutable {
              locate_attempt(requester,
                             system_.node_of(requester).value_or(net::kNoNode),
                             target, attempt + 1, std::move(done));
            });
      },
      kRpcTimeout);
}

}  // namespace agentloc::core
