#include "core/lhagent.hpp"

#include "hashtree/delta.hpp"

#include <utility>

#include "platform/agent_system.hpp"
#include "util/bytebuffer.hpp"
#include "util/logging.hpp"

namespace agentloc::core {

LHAgent::LHAgent(platform::AgentAddress hagent, hashtree::HashTree initial)
    : LHAgent(std::vector<platform::AgentAddress>{hagent}, std::move(initial),
              2) {}

LHAgent::LHAgent(std::vector<platform::AgentAddress> coordinators,
                 hashtree::HashTree initial, int failover_threshold)
    : coordinators_(std::move(coordinators)),
      hagent_(coordinators_.at(0)),
      failover_threshold_(failover_threshold),
      tree_(std::move(initial)) {}

void LHAgent::note_pull_failure() {
  ++stats_.refresh_failures;
  if (coordinators_.size() < 2 ||
      ++consecutive_failures_ < failover_threshold_) {
    return;
  }
  consecutive_failures_ = 0;
  coordinator_index_ = (coordinator_index_ + 1) % coordinators_.size();
  hagent_ = coordinators_[coordinator_index_];
  ++stats_.failovers;
  AGENTLOC_LOG(kWarn, "lhagent")
      << "coordinator unreachable; failing over to agent " << hagent_.agent;
  system().send(id(), hagent_, PromoteRequest{}, PromoteRequest::kWireBytes);
}

void LHAgent::on_start() {
  system().register_service(node(), "lhagent", id());
}

void LHAgent::on_message(const platform::Message& message) {
  if (const auto* probe = message.body_as<LocationProbeRequest>()) {
    // Optimistic-locate verification (DESIGN.md §12): answer from this
    // node's resident table — node-local information, no communication.
    ++stats_.probes_served;
    system().reply(message, id(),
                   LocationProbeReply{system().hosts(node(), probe->target)},
                   LocationProbeReply::kWireBytes);
    return;
  }
  if (const auto* nack = message.body_as<BatchedUpdateNack>()) {
    // A flushed batch reached an IAgent that no longer serves (some of)
    // its entries: the batched analogue of paper §4.3 trigger (i). Refresh
    // the copy, then re-enqueue so the next flush re-resolves them.
    ++stats_.update_nacks;
    std::vector<LocationEntry> entries = nack->entries;
    refresh([this, entries = std::move(entries)] {
      if (batcher_ != nullptr) batcher_->requeue(entries);
    });
  }
}

void LHAgent::on_delivery_failure(const platform::DeliveryFailure& failure) {
  (void)failure;
  if (batcher_ == nullptr) return;  // nothing batched could have bounced
  // A batch chased an IAgent that migrated or retired. Refresh the copy;
  // the lost entries self-heal on each mover's next report, exactly like a
  // lost one-way UpdateRequest.
  ++stats_.batch_bounces;
  refresh([] {});
}

void LHAgent::enable_update_batching(sim::SimTime flush_interval,
                                     std::size_t max_entries) {
  batcher_ = std::make_unique<UpdateBatcher>(*this, system(), flush_interval,
                                             max_entries);
}

void LHAgent::enable_location_cache(const LocationCacheConfig& config) {
  cache_ = std::make_unique<LocationCache>(config.capacity, config.ttl);
}

void LHAgent::cache_store(const LocationEntry& entry) {
  if (cache_ != nullptr) cache_->store(entry, system().now());
}

void LHAgent::cache_invalidate(platform::AgentId agent) {
  if (cache_ != nullptr) cache_->invalidate(agent);
}

void LHAgent::enqueue_update(const LocationEntry& entry) {
  // A co-located mover just reported from this node: its binding is the
  // freshest information the node will ever see — deposit it for free.
  cache_store(entry);
  if (batcher_ != nullptr) {
    batcher_->enqueue(entry);
    return;
  }
  // Batching not enabled: behave like the classic path, one message per
  // report, so callers need not special-case the configuration.
  system().send(id(), resolve(entry.agent), UpdateRequest{entry},
                UpdateRequest::kWireBytes);
}

platform::AgentAddress LHAgent::resolve(platform::AgentId agent) {
  ++stats_.resolves;
  const auto target = tree_.lookup_id(agent);
  return platform::AgentAddress{target.location, target.iagent};
}

void LHAgent::refresh(std::function<void()> done) {
  waiters_.push_back(std::move(done));
  if (pull_in_flight_) {
    ++stats_.refreshes_coalesced;
    return;
  }
  pull_in_flight_ = true;
  ++stats_.refreshes_requested;
  pull(/*force_full=*/false);
}

void LHAgent::pull(bool force_full) {
  system().request(
      id(), hagent_, HashPullRequest{tree_.version(), force_full},
      HashPullRequest::kWireBytes, [this](platform::RpcResult result) {
        if (!result.ok()) {
          note_pull_failure();
          finish_pull();
          return;
        }
        const auto* reply = result.reply.body_as<HashPullReply>();
        if (reply == nullptr) {
          note_pull_failure();
          finish_pull();
          return;
        }
        consecutive_failures_ = 0;
        try {
          util::ByteReader reader(reply->payload);
          if (reply->is_delta) {
            const auto delta = hashtree::TreeDelta::deserialize(reader);
            delta.apply_to(tree_);
            ++stats_.delta_refreshes;
          } else {
            hashtree::HashTree fresh =
                hashtree::HashTree::deserialize(reader);
            if (fresh.version() >= tree_.version()) {
              tree_ = std::move(fresh);
            }
          }
          ++stats_.refreshes_completed;
          finish_pull();
        } catch (const std::exception& error) {
          if (reply->is_delta) {
            // A delta that no longer lines up with our copy (e.g. a lost
            // earlier refresh): fall back to a full snapshot once.
            ++stats_.delta_fallbacks;
            pull(/*force_full=*/true);
            return;
          }
          ++stats_.refresh_failures;
          AGENTLOC_LOG(kError, "lhagent")
              << "bad hash snapshot: " << error.what();
          finish_pull();
        }
      });
}

void LHAgent::finish_pull() {
  pull_in_flight_ = false;
  // Run the callbacks even on failure; clients retry end-to-end and a
  // subsequent wrong-IAgent bounce will trigger another refresh.
  std::vector<std::function<void()>> pending;
  pending.swap(waiters_);
  for (auto& waiter : pending) waiter();
}

}  // namespace agentloc::core
