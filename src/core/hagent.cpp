#include "core/hagent.hpp"

#include <cmath>
#include <utility>

#include "core/iagent.hpp"
#include "platform/agent_system.hpp"
#include "util/bytebuffer.hpp"
#include "util/logging.hpp"

namespace agentloc::core {
namespace {

/// A candidate split is "even" when each side keeps at least this fraction
/// of the load (paper §4.1's "even split", made concrete).
constexpr double kEvenSplitTolerance = 0.25;

/// Tree operations the coordinator's journal retains for delta refreshes.
constexpr std::size_t kJournalCapacity = 512;

/// Encoded-size bound on the same journal: crossing it truncates the oldest
/// ops in one batch, so churn storms cannot grow the primary's delta memory
/// without limit. Refreshers older than the truncation point fall back to
/// full snapshots.
constexpr std::size_t kJournalMaxBytes = 64 * 1024;

/// Deadline for a rehash to finish before the coordinator unlocks itself
/// anyway.
constexpr sim::SimTime kRehashTimeout = sim::SimTime::seconds(2);

}  // namespace

HAgent::HAgent(const MechanismConfig& config)
    : config_(config), journal_(kJournalCapacity, kJournalMaxBytes) {}

std::vector<platform::AgentAddress> HAgent::coordinator_list() const {
  std::vector<platform::AgentAddress> list{
      platform::AgentAddress{node(), id()}};
  if (backup_) list.push_back(*backup_);
  return list;
}

platform::AgentId HAgent::spawn_iagent(net::NodeId node) {
  return system().create<IAgent>(node, config_, coordinator_list()).id();
}

platform::AgentId HAgent::bootstrap(net::NodeId first_node) {
  const platform::AgentId first = spawn_iagent(first_node);
  tree_.emplace(first, first_node);

  // Optional capacity pre-split (DESIGN.md §15): grow the tree to
  // `initial_iagents` leaves (rounded up to a power of two) before any
  // traffic, by splitting every leaf once per round on its first unused
  // bit. Tables are empty, so no handoffs are owed — each leaf just gets
  // its predicate granted below. The ops are not journaled: every
  // secondary copy is seeded from this tree after bootstrap returns.
  while (config_.initial_iagents > tree_->leaf_count()) {
    for (const hashtree::IAgentId victim : tree_->leaves()) {
      const net::NodeId node = place_new_iagent();
      tree_->simple_split(victim, 1, spawn_iagent(node), node);
    }
  }

  // Grant each leaf its responsibility so the IAgents know the current hash
  // version (the match-everything predicate in the single-IAgent case).
  for (const hashtree::IAgentId leaf : tree_->leaves()) {
    ResponsibilityUpdate grant;
    grant.version = tree_->version();
    grant.predicate = predicate_of(*tree_, leaf);
    send_grant(leaf, grant);
  }
  return first;
}

void HAgent::on_message(const platform::Message& message) {
  if (const auto* request = message.body_as<HashPullRequest>()) {
    handle_pull(message, *request);
  } else if (const auto* request = message.body_as<SplitRequest>()) {
    handle_split(message, *request);
  } else if (const auto* request = message.body_as<MergeRequest>()) {
    handle_merge(message, *request);
  } else if (const auto* done = message.body_as<RehashDone>()) {
    handle_done(*done);
  } else if (const auto* moved = message.body_as<IAgentMoved>()) {
    handle_moved(*moved);
  } else if (const auto* replicate = message.body_as<ReplicateOp>()) {
    handle_replicate(*replicate);
  } else if (message.body_as<PromoteRequest>() != nullptr) {
    promote();
  }
}

void HAgent::bootstrap_follower(platform::AgentAddress primary,
                                const hashtree::HashTree& snapshot) {
  role_ = Role::kFollower;
  primary_ = primary;
  tree_ = snapshot;
}

void HAgent::set_backup(platform::AgentAddress backup) { backup_ = backup; }

void HAgent::replicate(const hashtree::TreeOp& op) {
  if (!backup_) return;
  ++stats_.ops_replicated;
  util::ByteWriter writer;
  hashtree::serialize_op(writer, op);
  ReplicateOp message;
  message.version = tree_->version();
  message.op_bytes = std::move(writer).take();
  const std::size_t bytes = message.wire_bytes();
  system().send(id(), *backup_, std::move(message), bytes);
}

void HAgent::record_op(const hashtree::TreeOp& op) {
  journal_.record(tree_->version(), op);
  stats_.journal_bytes = journal_.bytes();
  stats_.journal_compactions = journal_.truncations();
  replicate(op);
}

void HAgent::handle_replicate(const ReplicateOp& replicate) {
  if (role_ != Role::kFollower || !tree_) return;
  if (replicate.version <= tree_->version()) return;  // duplicate
  if (replicate.version != tree_->version() + 1) {
    // Lost an op (the stream is one-way): resynchronize wholesale.
    resync_from_primary();
    return;
  }
  try {
    util::ByteReader reader(replicate.op_bytes);
    hashtree::apply_op(*tree_, hashtree::deserialize_op(reader));
    ++stats_.ops_applied_as_follower;
  } catch (const std::exception& error) {
    AGENTLOC_LOG(kError, "hagent")
        << "replicated op failed (" << error.what() << "); resyncing";
    resync_from_primary();
  }
}

void HAgent::resync_from_primary() {
  if (!primary_ || resync_in_flight_) return;
  resync_in_flight_ = true;
  ++stats_.resyncs;
  system().request(
      id(), *primary_, HashPullRequest{0, /*force_full=*/true},
      HashPullRequest::kWireBytes, [this](platform::RpcResult result) {
        resync_in_flight_ = false;
        if (!result.ok()) return;  // primary gone; promotion will follow
        const auto* reply = result.reply.body_as<HashPullReply>();
        if (reply == nullptr || reply->is_delta) return;
        try {
          util::ByteReader reader(reply->payload);
          hashtree::HashTree fresh = hashtree::HashTree::deserialize(reader);
          if (!tree_ || fresh.version() >= tree_->version()) {
            tree_ = std::move(fresh);
          }
        } catch (const std::exception& error) {
          AGENTLOC_LOG(kError, "hagent")
              << "resync snapshot rejected: " << error.what();
        }
      });
}

void HAgent::promote() {
  if (role_ != Role::kFollower) return;  // idempotent
  role_ = Role::kPrimary;
  primary_.reset();
  ++stats_.promotions;
  AGENTLOC_LOG(kWarn, "hagent")
      << "promoted to primary at version "
      << (tree_ ? tree_->version() : 0);
}

void HAgent::handle_pull(const platform::Message& message,
                         const HashPullRequest& request) {
  ++stats_.pulls_served;
  HashPullReply reply;

  // Prefer a delta when the journal still covers the requester's version —
  // an O(changes) payload instead of an O(tree) one. Both widths are known
  // analytically, so the loser is never serialized at all.
  if (!request.force_full) {
    if (const auto delta = journal_.since(request.have_version)) {
      if (delta->serialized_bytes() < tree_->serialized_bytes()) {
        ++stats_.delta_pulls_served;
        reply.is_delta = true;
        util::ByteWriter writer;
        delta->serialize(writer);
        reply.payload = std::move(writer).take();
        const std::size_t bytes = reply.wire_bytes();
        system().reply(message, id(), std::move(reply), bytes);
        return;
      }
    }
  }

  util::ByteWriter writer;
  tree_->serialize(writer);
  reply.payload = std::move(writer).take();
  const std::size_t bytes = reply.wire_bytes();
  system().reply(message, id(), std::move(reply), bytes);
}

HAgent::SplitPlan HAgent::plan_split(const hashtree::HashTree& tree,
                                     hashtree::IAgentId victim,
                                     const std::vector<AgentLoad>& loads,
                                     const MechanismConfig& config) {
  std::uint64_t total = 0;
  for (const AgentLoad& load : loads) total += load.requests;

  const auto moved_fraction = [&](std::size_t position, bool moved_bit) {
    if (total == 0) return 0.0;
    std::uint64_t moved = 0;
    for (const AgentLoad& load : loads) {
      if (id_bit(load.agent, position) == moved_bit) moved += load.requests;
    }
    return static_cast<double>(moved) / static_cast<double>(total);
  };
  const auto is_even = [&](double fraction) {
    return fraction >= kEvenSplitTolerance &&
           fraction <= 1.0 - kEvenSplitTolerance;
  };

  SplitPlan plan;

  // Paper §4.1: complex split first — reclaim a padding bit, left-most label
  // first — falling back to simple split when no reclaim divides the load
  // evenly.
  for (const auto& point : tree.complex_split_candidates(victim)) {
    const std::size_t position = tree.split_point_bit_position(victim, point);
    const bool recorded = tree.label_bit(victim, point);
    const double fraction = moved_fraction(position, !recorded);
    if (is_even(fraction)) {
      plan.complex_point = point;
      plan.moved_fraction = fraction;
      return plan;
    }
  }

  // No load information: make the minimal structural change (m = 1).
  if (total == 0) return plan;

  const std::size_t depth = tree.depth_bits(victim);
  double best_distance = 2.0;
  for (std::size_t m = 1; m <= config.max_split_bits; ++m) {
    const double fraction = moved_fraction(depth + m - 1, true);
    const double distance = std::abs(fraction - 0.5);
    // `<=`: on ties prefer the larger m — when several bits are equally
    // useless (e.g. a shared id prefix), skipping more of them at once gets
    // the tree to the discriminating bits in far fewer splits.
    if (distance <= best_distance) {
      best_distance = distance;
      plan.simple_m = m;
      plan.moved_fraction = fraction;
    }
    if (is_even(fraction)) break;  // first even m wins (paper §4.1)
  }
  return plan;
}

void HAgent::handle_split(const platform::Message& message,
                          const SplitRequest& request) {
  const hashtree::IAgentId victim = message.from;
  if (role_ != Role::kPrimary || !tree_ || busy_ ||
      !tree_->contains(victim)) {
    ++stats_.rehashes_rejected;
    return;
  }

  const SplitPlan plan =
      plan_split(*tree_, victim, request.loads, config_);

  // Create the new IAgent, apply the split to the primary copy, then ship
  // new responsibilities to every leaf whose predicate changed.
  const net::NodeId new_node = place_new_iagent();
  const platform::AgentId fresh_id = spawn_iagent(new_node);

  const auto before = predicate_snapshot();
  hashtree::TreeOp op;
  op.victim = victim;
  op.new_iagent = fresh_id;
  op.location = new_node;
  if (plan.complex_point) {
    ++stats_.complex_splits;
    op.kind = hashtree::TreeOp::Kind::kComplexSplit;
    op.point = *plan.complex_point;
    tree_->complex_split(victim, *plan.complex_point, fresh_id, new_node);
  } else {
    ++stats_.simple_splits;
    op.kind = hashtree::TreeOp::Kind::kSimpleSplit;
    op.m = static_cast<std::uint32_t>(plan.simple_m);
    tree_->simple_split(victim, plan.simple_m, fresh_id, new_node);
  }
  record_op(op);

  const Predicate fresh_predicate = predicate_of(*tree_, fresh_id);
  std::vector<hashtree::IAgentId> affected;
  for (const auto& [leaf, predicate] : predicate_snapshot()) {
    if (leaf == fresh_id) continue;
    const auto old = before.find(leaf);
    if (old == before.end() || !(old->second.valid_bits ==
                                 predicate.valid_bits)) {
      affected.push_back(leaf);
    }
  }

  ResponsibilityUpdate fresh_grant;
  fresh_grant.version = tree_->version();
  fresh_grant.predicate = fresh_predicate;
  fresh_grant.expected_handoffs = static_cast<std::uint32_t>(affected.size());
  send_grant(fresh_id, fresh_grant);

  for (const hashtree::IAgentId leaf : affected) {
    ResponsibilityUpdate grant;
    grant.version = tree_->version();
    grant.predicate = predicate_of(*tree_, leaf);
    grant.has_transfer = true;
    grant.transfer_to = platform::AgentAddress{new_node, fresh_id};
    grant.transfer_predicate = fresh_predicate;
    send_grant(leaf, grant);
  }

  AGENTLOC_LOG(kInfo, "hagent")
      << (plan.complex_point ? "complex" : "simple") << " split of IAgent "
      << victim << " (rate " << request.rate << "/s) -> new IAgent "
      << fresh_id << " at node " << new_node << ", version "
      << tree_->version();

  begin_rehash(affected.size() + 1);
}

void HAgent::handle_merge(const platform::Message& message,
                          const MergeRequest& request) {
  const hashtree::IAgentId victim = message.from;
  if (role_ != Role::kPrimary || !tree_ || busy_ ||
      !tree_->contains(victim) || tree_->leaf_count() < 2) {
    ++stats_.rehashes_rejected;
    return;
  }

  const net::NodeId victim_node = tree_->location_of(victim);
  const auto before = predicate_snapshot();
  const hashtree::MergeResult result = tree_->merge(victim);
  hashtree::TreeOp op;
  op.kind = hashtree::TreeOp::Kind::kMerge;
  op.victim = victim;
  record_op(op);
  if (result.kind == hashtree::MergeResult::Kind::kSimple) {
    ++stats_.simple_merges;
  } else {
    ++stats_.complex_merges;
  }

  std::vector<hashtree::IAgentId> affected;
  for (const auto& [leaf, predicate] : predicate_snapshot()) {
    const auto old = before.find(leaf);
    if (old == before.end() ||
        !(old->second.valid_bits == predicate.valid_bits)) {
      affected.push_back(leaf);
    }
  }

  RetireOrder order;
  order.version = tree_->version();
  for (const hashtree::IAgentId leaf : affected) {
    order.routes.push_back(RetireOrder::Route{
        predicate_of(*tree_, leaf),
        platform::AgentAddress{tree_->location_of(leaf), leaf}});
  }
  const std::size_t order_bytes = order.wire_bytes();
  system().send(id(), platform::AgentAddress{victim_node, victim},
                std::move(order), order_bytes);

  for (const hashtree::IAgentId leaf : affected) {
    ResponsibilityUpdate grant;
    grant.version = tree_->version();
    grant.predicate = predicate_of(*tree_, leaf);
    grant.expected_handoffs = 1;
    send_grant(leaf, grant);
  }

  AGENTLOC_LOG(kInfo, "hagent")
      << (result.kind == hashtree::MergeResult::Kind::kSimple ? "simple"
                                                              : "complex")
      << " merge of IAgent " << victim << " (rate " << request.rate
      << "/s, " << request.entry_count << " entries), version "
      << tree_->version();

  begin_rehash(affected.size() + 1);
}

void HAgent::handle_done(const RehashDone& done) {
  (void)done;
  if (!busy_) return;
  if (--done_outstanding_ == 0) {
    busy_ = false;
    rehash_timeout_->cancel();
  }
}

void HAgent::handle_moved(const IAgentMoved& moved) {
  if (role_ != Role::kPrimary || !tree_ || !tree_->contains(moved.iagent)) {
    return;
  }
  ++stats_.iagent_moves;
  tree_->set_location(moved.iagent, moved.node);
  hashtree::TreeOp op;
  op.kind = hashtree::TreeOp::Kind::kSetLocation;
  op.victim = moved.iagent;
  op.location = moved.node;
  record_op(op);
}

net::NodeId HAgent::place_new_iagent() {
  // Round-robin placement; the paper defers locality-aware placement to
  // future work (§7), which the IAgent-side migration option covers.
  next_placement_ =
      (next_placement_ + 1) % static_cast<net::NodeId>(system().node_count());
  return next_placement_;
}

void HAgent::begin_rehash(std::size_t done_expected) {
  busy_ = true;
  done_outstanding_ = done_expected;
  if (!rehash_timeout_) {
    rehash_timeout_ = std::make_unique<sim::Timeout>(system().simulator());
  }
  rehash_timeout_->arm(kRehashTimeout, [this] {
    // An IAgent died or messages were lost beyond retry; release the lock so
    // the system keeps adapting (entries self-heal via updates).
    ++stats_.rehash_timeouts;
    busy_ = false;
    AGENTLOC_LOG(kWarn, "hagent") << "rehash timed out; unlocking";
  });
}

void HAgent::send_grant(hashtree::IAgentId leaf,
                        const ResponsibilityUpdate& grant) {
  const std::size_t bytes = grant.wire_bytes();
  system().send(id(), platform::AgentAddress{tree_->location_of(leaf), leaf},
                grant, bytes);
}

std::unordered_map<hashtree::IAgentId, Predicate>
HAgent::predicate_snapshot() const {
  std::unordered_map<hashtree::IAgentId, Predicate> snapshot;
  for (const hashtree::IAgentId leaf : tree_->leaves()) {
    snapshot.emplace(leaf, predicate_of(*tree_, leaf));
  }
  return snapshot;
}

}  // namespace agentloc::core
