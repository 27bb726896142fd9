#include "core/home_scheme.hpp"

#include <utility>

namespace agentloc::core {

HomeRegistryLocationScheme::HomeRegistryLocationScheme(
    platform::AgentSystem& system, MechanismConfig config)
    : system_(system), config_(config) {
  registries_.reserve(system_.node_count());
  for (net::NodeId node = 0; node < system_.node_count(); ++node) {
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
  send_register(self.id(), ++seqs_[self.id()], kMaxLocateRetries,
                std::move(done));
}

void HomeRegistryLocationScheme::update_location(
    platform::Agent& self, std::function<void(bool)> done) {
  ++stats_.updates;
  const auto node = system_.node_of(self.id());
  if (node) {
    system_.send(self.id(), home_of(self.id()),
                 UpdateRequest{LocationEntry{self.id(), *node,
                                             ++seqs_[self.id()]}},
                 UpdateRequest::kWireBytes);
  }
  done(true);
}

void HomeRegistryLocationScheme::deregister_agent(platform::Agent& self) {
  ++stats_.deregisters;
  if (!system_.node_of(self.id())) return;
  system_.send(self.id(), home_of(self.id()),
               DeregisterRequest{self.id(), ++seqs_[self.id()]},
               DeregisterRequest::kWireBytes);
  seqs_.erase(self.id());
}

void HomeRegistryLocationScheme::send_register(
    platform::AgentId self, std::uint64_t seq, int attempts_left,
    std::function<void(bool)> done) {
  const auto node = system_.node_of(self);
  if (!node || attempts_left <= 0) {
    done(false);
    return;
  }
  system_.request(
      self, home_of(self),
      RegisterRequest{LocationEntry{self, *node, seq}},
      RegisterRequest::kWireBytes,
      [this, self, seq, attempts_left,
       done = std::move(done)](platform::RpcResult result) mutable {
        if (result.ok()) {
          done(true);
          return;
        }
        ++stats_.timeout_retries;
        send_register(self, seq, attempts_left - 1, std::move(done));
      },
      config_.rpc_timeout);
}

void HomeRegistryLocationScheme::locate(
    platform::Agent& requester, platform::AgentId target,
    std::function<void(const LocateOutcome&)> done) {
  ++stats_.locates;
  locate_attempt(requester.id(), target, 1, std::move(done));
}

void HomeRegistryLocationScheme::locate_attempt(
    platform::AgentId requester, platform::AgentId target, int attempt,
    std::function<void(const LocateOutcome&)> done) {
  if (attempt > kMaxLocateRetries || !system_.node_of(requester)) {
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
            config_.transient_retry_delay,
            [this, requester, target, attempt,
             done = std::move(done)]() mutable {
              locate_attempt(requester, target, attempt + 1, std::move(done));
            });
      },
      config_.rpc_timeout);
}

}  // namespace agentloc::core
