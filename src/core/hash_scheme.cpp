#include "core/hash_scheme.hpp"

#include <memory>
#include <utility>

#include "core/iagent.hpp"
#include "util/logging.hpp"

namespace agentloc::core {
namespace {

/// An LHAgent's update batch flushes early once this many distinct agents
/// are pending.
constexpr std::size_t kBatchMaxEntries = 32;

/// Create `node`'s LHAgent with the optional extensions `config` turns on.
LHAgent& create_lhagent(platform::AgentSystem& system, net::NodeId node,
                        const std::vector<platform::AgentAddress>& coordinators,
                        const LHAgent::Snapshot& tree,
                        const MechanismConfig& config) {
  LHAgent& lhagent =
      system.create<LHAgent>(node, coordinators, tree);
  if (config.update_batching) {
    lhagent.enable_update_batching(config.batch_flush_interval,
                                   kBatchMaxEntries);
  }
  if (config.location_cache.capacity > 0) {
    lhagent.enable_location_cache(config.location_cache);
  }
  return lhagent;
}

}  // namespace

HashLocationScheme::HashLocationScheme(platform::AgentSystem& system,
                                       MechanismConfig config,
                                       net::NodeId hagent_node)
    : system_(system), config_(config) {
  hagent_ = &system_.create<HAgent>(hagent_node, config_);
  hagent_id_ = hagent_->id();
  const platform::AgentAddress hagent_address{hagent_node, hagent_id_};
  std::vector<platform::AgentAddress> coordinators{hagent_address};

  if (config_.hagent_replication) {
    // §7 fault-tolerance extension: a standby replica, placed away from the
    // primary, streams the primary copy op-by-op and takes over on demand.
    const net::NodeId backup_node = static_cast<net::NodeId>(
        (hagent_node + system_.node_count() / 2) % system_.node_count());
    backup_ = &system_.create<HAgent>(backup_node, config_);
    const platform::AgentAddress backup_address{backup_node, backup_->id()};
    hagent_->set_backup(backup_address);
    coordinators.push_back(backup_address);
  }

  const net::NodeId first_iagent_node =
      static_cast<net::NodeId>((hagent_node + 1) % system_.node_count());
  hagent_->bootstrap(first_iagent_node);
  if (backup_ != nullptr) {
    backup_->bootstrap_follower(hagent_address, hagent_->tree());
  }

  // Every secondary copy starts at the bootstrap version, so all of them
  // share one immutable snapshot until their own refreshes swap it.
  const auto snapshot =
      std::make_shared<const hashtree::HashTree>(hagent_->tree());
  lhagents_.reserve(system_.node_count());
  for (net::NodeId node = 0; node < system_.node_count(); ++node) {
    lhagents_.push_back(
        &create_lhagent(system_, node, coordinators, snapshot, config_));
  }
}

void HashLocationScheme::register_agent(platform::Agent& self,
                                        std::function<void(bool)> done) {
  ++stats_.registers;
  send_register(self.id(), self.node(), self.next_report_seq(),
                kMaxLocateRetries, std::move(done));
}

void HashLocationScheme::update_location(platform::Agent& self,
                                         std::function<void(bool)> done) {
  ++stats_.updates;
  send_update(self);
  // One-way semantics: "sent" is all the mover learns (paper §2.3); the
  // error paths come back through handle_agent_message / bounce notices.
  done(true);
}

bool HashLocationScheme::handle_agent_message(
    platform::Agent& self, const platform::Message& message) {
  if (const auto* notify = message.body_as<WatchNotify>()) {
    // The notification carries a fresh authoritative binding — deposit it
    // at the watcher's node before firing the callbacks.
    if (LHAgent* lhagent = lhagent_at(self.node()); lhagent != nullptr) {
      lhagent->cache_store(notify->entry);
    }
    // Fire every pending watch of this (requester, target) pair.
    for (std::size_t i = 0; i < pending_watches_.size();) {
      PendingWatch& pending = *pending_watches_[i];
      if (pending.requester == self.id() &&
          pending.target == notify->entry.agent) {
        auto done = std::move(pending.done);
        pending_watches_.erase(pending_watches_.begin() +
                               static_cast<std::ptrdiff_t>(i));
        WatchOutcome outcome;
        outcome.fired = true;
        outcome.entry = notify->entry;
        done(outcome);
      } else {
        ++i;
      }
    }
    return true;
  }
  if (const auto* notice = message.body_as<NotResponsibleNotice>()) {
    // Paper §4.3 trigger (i): our last update reached an IAgent that no
    // longer serves us. Refresh the local copy and resend.
    if (notice->agent == self.id()) {
      ++stats_.stale_retries;
      refresh_and_resend_update(self);
    }
    return true;
  }
  return false;
}

void HashLocationScheme::handle_delivery_failure(
    platform::Agent& self, const platform::DeliveryFailure& failure) {
  (void)failure;
  // A one-way update chased an IAgent that migrated or retired; the node in
  // our copy is stale.
  ++stats_.delivery_retries;
  refresh_and_resend_update(self);
}

void HashLocationScheme::deregister_agent(platform::Agent& self) {
  ++stats_.deregisters;
  LHAgent* lhagent = lhagent_at(self.node());
  if (lhagent == nullptr) return;
  // The departing agent's binding must not outlive it on this node.
  lhagent->cache_invalidate(self.id());
  const auto target = lhagent->resolve(self.id());
  system_.send(self.id(), target,
               DeregisterRequest{self.id(), self.next_report_seq()},
               DeregisterRequest::kWireBytes);
}

void HashLocationScheme::send_update(platform::Agent& self) {
  LHAgent* lhagent = lhagent_at(self.node());
  if (lhagent == nullptr) return;  // in transit: its next arrival reports
  const LocationEntry entry{self.id(), self.node(), self.next_report_seq()};
  if (config_.update_batching) {
    // Hand the report to the co-located LHAgent (same-node IPC, free by the
    // DESIGN.md §2 cost model); it coalesces reports from every local mover
    // and flushes one BatchedUpdate per responsible IAgent.
    lhagent->enqueue_update(entry);
    return;
  }
  // Same free deposit the batched path gets inside enqueue_update: the
  // mover reporting from here is the freshest binding this node can know.
  lhagent->cache_store(entry);
  system_.send(self.id(), lhagent->resolve(self.id()), UpdateRequest{entry},
               UpdateRequest::kWireBytes);
}

void HashLocationScheme::refresh_and_resend_update(platform::Agent& self) {
  ++stats_.refreshes_triggered;
  LHAgent* lhagent = lhagent_at(self.node());
  if (lhagent == nullptr) return;
  lhagent->refresh([this, self = self.id()] {
    // The refresh outlives this call, and the mover may be gone by now.
    if (platform::Agent* agent = system_.find(self)) send_update(*agent);
  });
}

void HashLocationScheme::send_register(platform::AgentId self,
                                       net::NodeId node, std::uint64_t seq,
                                       int attempts_left,
                                       std::function<void(bool)> done) {
  LHAgent* lhagent = lhagent_at(node);
  if (lhagent == nullptr) {
    done(false);
    return;
  }
  if (attempts_left <= 0) {
    AGENTLOC_LOG(kWarn, "hash-scheme")
        << "registration for agent " << self << " gave up";
    done(false);
    return;
  }

  const LocationEntry entry{self, node, seq};
  const platform::AgentAddress target = lhagent->resolve(self);
  system_.request(
      self, target, RegisterRequest{entry}, RegisterRequest::kWireBytes,
      [this, self, seq, attempts_left,
       done = std::move(done)](platform::RpcResult result) mutable {
        if (result.ok()) {
          if (const auto* ack = result.reply.body_as<UpdateAck>();
              ack != nullptr && ack->responsible) {
            done(true);
            return;
          }
          ++stats_.stale_retries;
        } else if (result.status ==
                   platform::RpcResult::Status::kDeliveryFailure) {
          ++stats_.delivery_retries;
        } else {
          // Timeout: slow, not stale. Retry without refreshing.
          ++stats_.timeout_retries;
          send_register(self, node_of(self), seq, attempts_left - 1,
                        std::move(done));
          return;
        }
        ++stats_.refreshes_triggered;
        LHAgent* lhagent_now = lhagent_at(node_of(self));
        if (lhagent_now == nullptr) {
          done(false);
          return;
        }
        lhagent_now->refresh([this, self, seq, attempts_left,
                              done = std::move(done)]() mutable {
          send_register(self, node_of(self), seq, attempts_left - 1,
                        std::move(done));
        });
      },
      kRpcTimeout);
}

void HashLocationScheme::watch(platform::Agent& requester,
                               platform::AgentId target,
                               std::function<void(const WatchOutcome&)> done) {
  watch_attempt(requester.id(), lhagent_at(requester.node()), target, 1,
                std::move(done));
}

void HashLocationScheme::watch_attempt(
    platform::AgentId requester, LHAgent* lhagent, platform::AgentId target,
    int attempt, std::function<void(const WatchOutcome&)> done) {
  if (attempt > kMaxLocateRetries || lhagent == nullptr) {
    done(WatchOutcome{});
    return;
  }
  system_.request(
      requester, lhagent->resolve(target), WatchRequest{target},
      WatchRequest::kWireBytes,
      [this, requester, target, attempt,
       done = std::move(done)](platform::RpcResult result) mutable {
        const auto* reply =
            result.ok() ? result.reply.body_as<LocateReply>() : nullptr;
        if (reply != nullptr &&
            (reply->status == LocateStatus::kFound ||
             reply->status == LocateStatus::kUnknown)) {
          // Armed at the responsible IAgent; wait for the WatchNotify.
          arm_watch(requester, target, std::move(done));
          return;
        }
        if (reply != nullptr &&
            reply->status == LocateStatus::kNotResponsible) {
          ++stats_.stale_retries;
        } else if (!result.ok() &&
                   result.status ==
                       platform::RpcResult::Status::kDeliveryFailure) {
          ++stats_.delivery_retries;
        } else if (!result.ok()) {
          ++stats_.timeout_retries;
          watch_attempt(requester, lhagent_at(node_of(requester)), target,
                        attempt + 1, std::move(done));
          return;
        }
        ++stats_.refreshes_triggered;
        LHAgent* lhagent_now = lhagent_at(node_of(requester));
        if (lhagent_now == nullptr) {
          done(WatchOutcome{});
          return;
        }
        lhagent_now->refresh([this, requester, target, attempt,
                              done = std::move(done)]() mutable {
          watch_attempt(requester, lhagent_at(node_of(requester)), target,
                        attempt + 1, std::move(done));
        });
      },
      kRpcTimeout);
}

void HashLocationScheme::arm_watch(
    platform::AgentId requester, platform::AgentId target,
    std::function<void(const WatchOutcome&)> done) {
  auto pending = std::make_unique<PendingWatch>();
  PendingWatch* raw = pending.get();
  pending->token = ++watch_tokens_;
  pending->requester = requester;
  pending->target = target;
  pending->done = std::move(done);
  pending->timeout = std::make_unique<sim::Timeout>(system_.simulator());
  pending->timeout->arm(kWatchTimeout, [this, token = raw->token] {
    for (std::size_t i = 0; i < pending_watches_.size(); ++i) {
      if (pending_watches_[i]->token == token) {
        auto expired = std::move(pending_watches_[i]);
        pending_watches_.erase(pending_watches_.begin() +
                               static_cast<std::ptrdiff_t>(i));
        expired->done(WatchOutcome{});
        return;
      }
    }
  });
  pending_watches_.push_back(std::move(pending));
}

void HashLocationScheme::locate(platform::Agent& requester,
                                platform::AgentId target,
                                std::function<void(const LocateOutcome&)> done) {
  ++stats_.locates;
  locate_attempt(requester.id(), lhagent_at(requester.node()), target, 1,
                 std::move(done));
}

void HashLocationScheme::locate_attempt(
    platform::AgentId requester, LHAgent* lhagent, platform::AgentId target,
    int attempt, std::function<void(const LocateOutcome&)> done) {
  if (attempt > kMaxLocateRetries) {
    ++stats_.locates_failed;
    done(LocateOutcome{false, net::kNoNode, attempt - 1});
    return;
  }
  if (lhagent == nullptr) {
    ++stats_.locates_failed;
    done(LocateOutcome{false, net::kNoNode, attempt - 1});
    return;
  }

  // Cache fast path (DESIGN.md §12), first attempt only — a retry means
  // something already proved stale, so it goes straight to the authority.
  if (attempt == 1 && lhagent->location_cache() != nullptr) {
    LocationCache& cache = *lhagent->location_cache();
    if (const auto hit = cache.lookup(target, system_.now())) {
      probe_cached_node(requester, *lhagent, target, hit->node, attempt,
                        std::move(done));
      return;
    }
  }
  locate_via_iagent(requester, lhagent, target, attempt, std::move(done));
}

void HashLocationScheme::probe_cached_node(
    platform::AgentId requester, LHAgent& lhagent, platform::AgentId target,
    net::NodeId cached_node, int attempt,
    std::function<void(const LocateOutcome&)> done) {
  if (cached_node >= lhagents_.size()) {
    // A binding for a node this deployment does not have (corrupt entry);
    // treat as stale.
    lhagent.location_cache()->note_stale(target);
    locate_via_iagent(requester, &lhagent, target, attempt, std::move(done));
    return;
  }
  const platform::AgentAddress probe_address{cached_node,
                                             lhagents_[cached_node]->id()};
  system_.request(
      requester, probe_address, LocationProbeRequest{target},
      LocationProbeRequest::kWireBytes,
      [this, requester, target, cached_node, attempt,
       done = std::move(done)](platform::RpcResult result) mutable {
        if (result.ok()) {
          if (const auto* reply = result.reply.body_as<LocationProbeReply>();
              reply != nullptr && reply->present) {
            // Verified at the node itself: done, no IAgent involved.
            ++stats_.optimistic_locates;
            ++stats_.locates_found;
            done(LocateOutcome{true, cached_node, attempt});
            return;
          }
        }
        // The target moved away (or the probe was lost): drop the binding
        // and fall back to the authoritative path, same attempt budget.
        LHAgent* lhagent_now = lhagent_at(node_of(requester));
        if (lhagent_now != nullptr &&
            lhagent_now->location_cache() != nullptr) {
          lhagent_now->location_cache()->note_stale(target);
        }
        locate_via_iagent(requester, lhagent_now, target, attempt,
                          std::move(done));
      },
      kRpcTimeout);
}

void HashLocationScheme::locate_via_iagent(
    platform::AgentId requester, LHAgent* lhagent, platform::AgentId target,
    int attempt, std::function<void(const LocateOutcome&)> done) {
  if (lhagent == nullptr) {
    ++stats_.locates_failed;
    done(LocateOutcome{false, net::kNoNode, attempt - 1});
    return;
  }
  ++stats_.locate_rpcs;
  system_.request(
      requester, lhagent->resolve(target), LocateRequest{target},
      LocateRequest::kWireBytes,
      [this, requester, target, attempt,
       done = std::move(done)](platform::RpcResult result) mutable {
        handle_locate_reply(requester, target, attempt, std::move(done),
                            result);
      },
      kRpcTimeout);
}

void HashLocationScheme::handle_locate_reply(
    platform::AgentId requester, platform::AgentId target, int attempt,
    std::function<void(const LocateOutcome&)> done,
    const platform::RpcResult& result) {
  auto refresh_and_retry = [&]() mutable {
    ++stats_.refreshes_triggered;
    LHAgent* lhagent_now = lhagent_at(node_of(requester));
    if (lhagent_now == nullptr) {
      ++stats_.locates_failed;
      done(LocateOutcome{false, net::kNoNode, attempt});
      return;
    }
    lhagent_now->refresh([this, requester, target, attempt,
                          done = std::move(done)]() mutable {
      locate_attempt(requester, lhagent_at(node_of(requester)), target,
                     attempt + 1, std::move(done));
    });
  };

  if (!result.ok()) {
    if (result.status == platform::RpcResult::Status::kDeliveryFailure) {
      // The IAgent is not at the node our copy recorded: stale copy.
      ++stats_.delivery_retries;
      refresh_and_retry();
    } else {
      // Timeout: slow or lossy, not stale — retry without refreshing.
      ++stats_.timeout_retries;
      locate_attempt(requester, lhagent_at(node_of(requester)), target,
                     attempt + 1, std::move(done));
    }
    return;
  }
  const auto* reply = result.reply.body_as<LocateReply>();
  if (reply == nullptr) {
    ++stats_.locates_failed;
    done(LocateOutcome{false, net::kNoNode, attempt});
    return;
  }
  switch (reply->status) {
    case LocateStatus::kFound:
      // Remember the authoritative answer for the requester's node; the
      // carried seq keeps out-of-order deposits newest-wins.
      if (LHAgent* lhagent = lhagent_at(node_of(requester));
          lhagent != nullptr) {
        lhagent->cache_store(LocationEntry{target, reply->node, reply->seq});
      }
      ++stats_.locates_found;
      done(LocateOutcome{true, reply->node, attempt});
      return;
    case LocateStatus::kNotResponsible:
      // Paper §4.3 trigger (ii).
      ++stats_.stale_retries;
      refresh_and_retry();
      return;
    case LocateStatus::kTransient:
      // Handoff in flight: the mapping is current, just early. Retry
      // without refreshing.
      ++stats_.transient_retries;
      system_.simulator().schedule_after(
          kTransientRetryDelay,
          [this, requester, target, attempt, done = std::move(done)]() mutable {
            locate_attempt(requester, lhagent_at(node_of(requester)), target,
                           attempt + 1, std::move(done));
          });
      return;
    case LocateStatus::kUnknown:
      // Either the target never existed or our copy routed us to an
      // IAgent that never received the handoff; one refresh cycle
      // settles which.
      refresh_and_retry();
      return;
  }
}

const SchemeStats& HashLocationScheme::stats() const noexcept {
  SchemeStats& stats = const_cast<HashLocationScheme*>(this)->stats_;
  stats.cache_hits = 0;
  stats.cache_misses = 0;
  stats.cache_stale_hits = 0;
  stats.cache_evictions = 0;
  stats.cache_invalidations = 0;
  for (const LHAgent* lhagent : lhagents_) {
    const LocationCache* cache = lhagent->location_cache();
    if (cache == nullptr) continue;
    const LocationCacheStats& counters = cache->stats();
    stats.cache_hits += counters.hits;
    stats.cache_misses += counters.misses;
    stats.cache_stale_hits += counters.stale_hits;
    stats.cache_evictions += counters.evictions;
    stats.cache_invalidations += counters.invalidations;
  }
  return stats_;
}

std::size_t HashLocationScheme::estimated_resident_bytes() const noexcept {
  // Mirror hagent()'s primary selection, const-safely: `hagent_` dangles
  // once the primary is disposed (failover tests), so only touch it while
  // the platform still knows the id.
  const HAgent* primary = nullptr;
  if (system_.exists(hagent_id_)) {
    primary = hagent_;
  } else if (backup_ != nullptr) {
    primary = backup_;
  }

  std::size_t bytes = primary != nullptr ? primary->resident_bytes() : 0;
  if (backup_ != nullptr && backup_ != primary) {
    bytes += backup_->resident_bytes();
  }
  for (const LHAgent* lhagent : lhagents_) {
    bytes += lhagent->resident_bytes();
  }

  // The tree's leaves ARE the IAgents (hashtree::IAgentId == platform
  // AgentId), so the live tracker population is enumerable through the
  // primary copy. A leaf mid-retirement may already be disposed — skip it.
  if (primary != nullptr && primary->iagent_count() > 0) {
    primary->tree().for_each_leaf(
        [&](hashtree::IAgentId leaf, hashtree::NodeLocation) {
          const auto* iagent = dynamic_cast<const IAgent*>(system_.find(leaf));
          if (iagent != nullptr) bytes += iagent->resident_bytes();
        });
  }
  return bytes;
}

void HashLocationScheme::reserve(std::size_t agents) {
  const HAgent* primary = system_.exists(hagent_id_) ? hagent_ : backup_;
  if (primary == nullptr || primary->iagent_count() == 0) return;
  // Responsibility is hash-partitioned across the current leaves; size each
  // for a uniform share (later splits re-home entries with their own
  // handoff-time reserve).
  const std::size_t share = agents / primary->iagent_count() + 1;
  primary->tree().for_each_leaf(
      [&](hashtree::IAgentId leaf, hashtree::NodeLocation) {
        auto* iagent = dynamic_cast<IAgent*>(system_.find(leaf));
        if (iagent != nullptr) iagent->reserve(share);
      });
}

}  // namespace agentloc::core
