#pragma once

#include <optional>
#include <vector>

#include "hashtree/tree.hpp"
#include "util/bytebuffer.hpp"

namespace agentloc::hashtree {

/// One replayable mutation of a hash tree. A sequence of `TreeOp`s starting
/// from a known version reproduces the primary copy exactly — the basis of
/// delta refresh, where the HAgent ships only the operations a secondary
/// copy is missing instead of a full snapshot.
struct TreeOp {
  enum class Kind : std::uint8_t {
    kSimpleSplit = 0,
    kComplexSplit = 1,
    kMerge = 2,
    kSetLocation = 3,
  };

  Kind kind = Kind::kSetLocation;

  /// Split/merge victim, or the leaf whose location changed.
  IAgentId victim = kNoIAgent;

  /// kSimpleSplit: the m parameter.
  std::uint32_t m = 1;

  /// kComplexSplit: the reclaimed padding bit.
  SplitPoint point;

  /// Splits: the new IAgent.
  IAgentId new_iagent = kNoIAgent;

  /// Splits: node of the new IAgent; kSetLocation: the new node.
  NodeLocation location = 0;

  friend bool operator==(const TreeOp&, const TreeOp&) = default;
};

/// Apply one op to a tree (throws exactly like the underlying mutation).
void apply_op(HashTree& tree, const TreeOp& op);

void serialize_op(util::ByteWriter& writer, const TreeOp& op);
TreeOp deserialize_op(util::ByteReader& reader);

/// Encoded width of `serialize_op(op)` in bytes, without writing it.
std::size_t serialized_op_bytes(const TreeOp& op);

/// A delta shipped from the primary copy: replay `ops` onto a tree at
/// `base_version` to reach `target_version`.
struct TreeDelta {
  std::uint64_t base_version = 0;
  std::uint64_t target_version = 0;
  std::vector<TreeOp> ops;

  void serialize(util::ByteWriter& writer) const;
  static TreeDelta deserialize(util::ByteReader& reader);

  /// Encoded width in bytes, computed analytically (no serialization) so
  /// the HAgent decides delta-vs-snapshot before encoding anything.
  std::size_t serialized_bytes() const;

  /// Replay onto `tree`; throws `std::logic_error` when the tree is not at
  /// `base_version` or the replay does not land on `target_version`.
  ///
  /// Single pass: the leaf index is pre-sized for the replay's net split
  /// count, and each op edits the tree's node array and leaf index in place
  /// (no post-replay reindex or rebuild), so a replay costs O(changed).
  void apply_to(HashTree& tree) const;
};

/// Bounded journal of the mutations applied to a primary copy, indexed by
/// the version each produced. The owner records every mutation it performs;
/// `since` then cuts deltas for stale secondary copies.
///
/// Bounded two ways: by op count (`capacity`) and by encoded size
/// (`max_bytes`, 0 = unbounded). Crossing either bound truncates the oldest
/// ops — refreshers older than the truncation point fall back to snapshots —
/// so a churn storm cannot grow the primary's memory without limit.
class TreeJournal {
 public:
  explicit TreeJournal(std::size_t capacity = 256, std::size_t max_bytes = 0)
      : capacity_(capacity), max_bytes_(max_bytes) {}

  /// Record an op that advanced the tree to `version_after`. Versions must
  /// arrive strictly increasing by 1 (each mutation bumps by one); gaps
  /// clear the journal (safe fallback to full snapshots).
  void record(std::uint64_t version_after, TreeOp op);

  /// Delta from `version` to the journal head; nullopt when the journal no
  /// longer reaches back that far (or `version` is ahead of the head).
  std::optional<TreeDelta> since(std::uint64_t version) const;

  std::size_t size() const noexcept { return ops_.size(); }
  std::size_t capacity() const noexcept { return capacity_; }

  /// Encoded size of the retained ops (sum of `serialized_op_bytes`).
  std::size_t bytes() const noexcept { return bytes_; }
  /// Times the bounds forced oldest-op truncation (each event may drop
  /// several ops at once).
  std::uint64_t truncations() const noexcept { return truncations_; }

 private:
  std::size_t capacity_;
  std::size_t max_bytes_;
  std::size_t bytes_ = 0;           ///< encoded size of `ops_`
  std::uint64_t truncations_ = 0;
  std::uint64_t head_version_ = 0;  ///< version after the newest recorded op
  std::vector<TreeOp> ops_;         ///< oldest first
};

}  // namespace agentloc::hashtree
