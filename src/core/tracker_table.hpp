#pragma once

#include <optional>
#include <vector>

#include "core/protocol.hpp"
#include "util/flat_map.hpp"

namespace agentloc::core {

/// The location table held by a tracking agent: an IAgent, a registry of
/// the home and centralized baselines, or one partition of `agentlocd`'s
/// `net::LocateDirectory`. It maps agent id → (node, seq).
///
/// One rule for every binding (DESIGN.md §6). The network may reorder and
/// duplicate an agent's reports, and the agent's seq orders them:
///  - A deregister stores a *tombstone*: an entry whose node is
///    `net::kNoNode`, the node field's default.
///  - An entry replaces the held one only if its seq is higher, or if it is a
///    tombstone and the held entry is a live binding at the same seq: a
///    deregister wins a seq tie. So a stale report never rolls a binding
///    back, and a tombstone refuses every report up to its seq, including
///    one it overtook. Client seqs never restart, so a re-registration
///    continues above the tombstone and replaces it.
///  - `find`, `contains`, `for_each` and `size` see live bindings only. The
///    handoff scans (`extract_matching`, `drain_partition`) carry tombstones,
///    so the receiving table keeps refusing stale reports.
/// A tombstone stays until a newer seq overwrites it: one slot per
/// deregistered id.
///
/// Backed by `util::FlatMap`: the table is probed on every update, locate and
/// handoff scan, and the node-per-entry layout of `std::unordered_map` made
/// those probes (and bulk extract/clear during rehashes) allocator-bound.
/// `kNoAgent` (0) is the vacant-slot marker; the platform never allocates it.
/// Every member is inline so the wire directory (agentloc_net, which
/// agentloc_core links) can hold these tables too.
class LocationTable {
 public:
  /// Store `entry` (a tombstone when `entry.node` is `net::kNoNode`) if
  /// nothing is held for its agent or it replaces the held entry under the
  /// rule above. Returns whether it was stored.
  bool apply(const LocationEntry& entry) {
    const Stored incoming{entry.node, entry.seq};
    if (Stored* stored = entries_.find(entry.agent)) {
      if (!incoming.replaces(*stored)) return false;
      tombstones_ -= stored->tombstone();
      *stored = incoming;
    } else {
      entries_.emplace(entry.agent, incoming);
    }
    tombstones_ += incoming.tombstone();
    return true;
  }

  /// Deregister: apply a tombstone at `seq` — also over nothing, so a
  /// deregister that overtook the agent's first report still refuses it.
  /// Returns whether a live binding was removed.
  bool remove(platform::AgentId agent, std::uint64_t seq) {
    const std::size_t live = size();
    apply(LocationEntry{agent, net::kNoNode, seq});
    return size() < live;
  }

  std::optional<LocationEntry> find(platform::AgentId agent) const {
    const Stored* stored = entries_.find(agent);
    if (stored == nullptr || stored->tombstone()) return std::nullopt;
    return LocationEntry{agent, stored->node, stored->seq};
  }
  bool contains(platform::AgentId agent) const {
    return find(agent).has_value();
  }
  /// Live bindings.
  std::size_t size() const noexcept { return entries_.size() - tombstones_; }

  /// Pre-size for an expected population — bulk loads (handoffs, takeovers)
  /// would otherwise rehash repeatedly while inserting.
  void reserve(std::size_t count) { entries_.reserve(count); }

  /// Allocated bytes of the backing slot array (scheme-side attribution).
  std::size_t resident_bytes() const noexcept {
    return entries_.resident_bytes();
  }

  /// Remove and return every entry matching `predicate`, tombstones
  /// included — the handoff scan performed when responsibility shrinks.
  std::vector<LocationEntry> extract_matching(const Predicate& predicate) {
    // Single pass: `extract_if` moves every match out and recompacts the
    // survivors with one rehash, so a split-time handoff costs O(table) flat
    // instead of collect-then-erase (one probe-and-shift per moved record).
    std::vector<LocationEntry> extracted;
    entries_.extract_if(
        [&](platform::AgentId agent, const Stored&) {
          return predicate.matches(agent);
        },
        [&](platform::AgentId agent, Stored&& stored) {
          tombstones_ -= stored.tombstone();
          extracted.push_back(LocationEntry{agent, stored.node, stored.seq});
        });
    return extracted;
  }

  /// Retirement handoff: empty the table, partitioned across `predicates`
  /// (first match wins; entries matching none are dropped), tombstones
  /// included. One pass over the table.
  std::vector<std::vector<LocationEntry>> drain_partition(
      const std::vector<Predicate>& predicates) {
    std::vector<std::vector<LocationEntry>> batches(predicates.size());
    entries_.for_each([&](platform::AgentId agent, const Stored& stored) {
      for (std::size_t r = 0; r < predicates.size(); ++r) {
        if (predicates[r].matches(agent)) {
          batches[r].push_back(LocationEntry{agent, stored.node, stored.seq});
          break;
        }
      }
    });
    entries_.clear();
    tombstones_ = 0;
    return batches;
  }

  /// Visit every live binding without materializing a snapshot.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    entries_.for_each([&](platform::AgentId agent, const Stored& stored) {
      if (!stored.tombstone()) {
        fn(LocationEntry{agent, stored.node, stored.seq});
      }
    });
  }

 private:
  struct Stored {
    net::NodeId node = net::kNoNode;
    std::uint64_t seq = 0;

    bool tombstone() const noexcept { return node == net::kNoNode; }
    bool replaces(const Stored& held) const noexcept {
      if (seq != held.seq) return seq > held.seq;
      return tombstone() && !held.tombstone();
    }
  };
  util::FlatMap<platform::AgentId, Stored, platform::kNoAgent> entries_;
  std::size_t tombstones_ = 0;  ///< slots of `entries_` holding a tombstone
};

/// Windowed request-rate statistics (paper §4: "we maintain running
/// statistics of the requests received by each IAgent" and, per agent, "the
/// accumulated rate of update and query requests").
///
/// `record` counts a request in the open window; `roll` closes it, every
/// `kStatsWindow` in the IAgent. Threshold decisions and split planning read
/// the *closed* window, so they always see a full interval.
class LoadWindow {
 public:
  void record(platform::AgentId agent) { open_log_.push_back(agent); }

  /// Close the current window.
  void roll();

  /// Requests/second over the last closed window, `kStatsWindow` long.
  double rate() const noexcept;

  /// Total requests in the last closed window.
  std::uint64_t total() const noexcept { return closed_log_.size(); }

  /// Per-agent request counts of the last closed window, by ascending id.
  /// Built on demand: only a split request asks.
  std::vector<AgentLoad> loads() const;

  /// Number of windows closed so far.
  std::uint64_t rolls() const noexcept { return rolls_; }

  /// Allocated bytes of both request logs.
  std::size_t resident_bytes() const noexcept {
    return (open_log_.capacity() + closed_log_.capacity()) *
           sizeof(platform::AgentId);
  }

 private:
  /// One id per request counted, in the open and in the last closed window.
  /// `roll` swaps them and clears the new open log in place, so once both
  /// have grown to a window's load, counting allocates nothing.
  std::vector<platform::AgentId> open_log_;
  std::vector<platform::AgentId> closed_log_;
  std::uint64_t rolls_ = 0;
};

}  // namespace agentloc::core
