#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "util/bitstring.hpp"
#include "util/bytebuffer.hpp"
#include "util/flat_map.hpp"

namespace agentloc::hashtree {

/// Identifier of the IAgent an entry of the hash function points at.
/// The hash tree treats it as opaque; the location layer uses platform
/// agent ids.
using IAgentId = std::uint64_t;
inline constexpr IAgentId kNoIAgent = 0;

/// Node id (location) recorded next to each leaf so a secondary copy of the
/// hash function resolves an agent id to *both* the responsible IAgent and
/// where to reach it — exactly what the paper's LHAgent hands back.
using NodeLocation = std::uint32_t;

/// Where in a leaf's hyper-label a padding bit can be reclaimed by a complex
/// split. `segment` indexes the hyper-label segments as returned by
/// `HashTree::hyper_label_segments` (segment 0 is the root padding, possibly
/// empty; segment i>0 is the label of the i-th edge on the root→leaf path).
/// `bit` is the index within the segment: for the root padding any bit, for
/// edge labels a padding bit (index ≥ 1; index 0 is the valid bit).
struct SplitPoint {
  std::size_t segment = 0;
  std::size_t bit = 0;

  friend bool operator==(const SplitPoint&, const SplitPoint&) = default;
};

/// Outcome of `HashTree::merge`.
struct MergeResult {
  enum class Kind {
    kSimple,  ///< leaf sibling absorbed the merged IAgent's load
    kComplex  ///< load redistributes over the sibling subtree (re-lookup)
  };

  Kind kind = Kind::kSimple;

  /// For a simple merge: the surviving IAgent that absorbed the load.
  IAgentId into_iagent = kNoIAgent;
};

/// The extendible hash function of the paper, represented as a binary *hash
/// tree* (paper §3–§4).
///
/// * Each leaf corresponds to an IAgent; each edge carries a non-empty bit
///   *label* whose first bit (the *valid bit*) is the only one used by the
///   agent→IAgent mapping. The remaining bits are padding left behind by
///   merges (and by multi-bit simple splits), and may later be reclaimed by
///   complex splits.
/// * An agent id maps to a leaf by walking from the root: consume the next id
///   bit to pick the child whose valid bit matches, then skip one id bit for
///   every remaining label bit of that edge. Ids shorter than the consumed
///   path are extended with zero bits (64-bit ids make this an edge case
///   only tests reach).
/// * The *root padding* generalizes the same idea to the root: bits skipped
///   before the first discrimination (needed so merges at the root preserve
///   the bit positions of the surviving subtree — see DESIGN.md §6).
///
/// Storage is one flat array of 32-byte nodes indexed by slot: internal
/// nodes carry the absolute id-bit position their children discriminate on,
/// leaves the `{iagent, location}` payload (DESIGN.md §9). Edge labels live
/// in a parallel array, so a lookup hop reads one node and nothing else.
/// Splits and merges splice slots in place; merges free slots that later
/// splits reuse.
///
/// The class is a value type. The HAgent owns the primary instance; LHAgents
/// share immutable snapshots of it, and a refresh swaps one LHAgent's
/// pointer to a newer snapshot (DESIGN.md §9). Every mutation bumps
/// `version()`, which is the staleness token the paper's update-propagation
/// protocol compares. `const` methods mutate nothing, so any number of
/// threads may call them concurrently on a shared tree.
class HashTree {
 public:
  /// A tree with a single leaf: one IAgent responsible for every agent.
  HashTree(IAgentId initial, NodeLocation location);

  /// --- Lookup ------------------------------------------------------------

  struct Target {
    IAgentId iagent = kNoIAgent;
    NodeLocation location = 0;
  };

  /// Map an agent id (given as bits, most significant first) to the
  /// responsible IAgent: one pass down the node array testing each internal
  /// node's `bit_pos`.
  Target lookup(const util::BitString& id_bits) const;

  /// 64-bit ids, allocation-free: the same loop shifts the id in a register
  /// without materializing a `BitString`.
  Target lookup_id(std::uint64_t id) const;

  /// Reference implementation of `lookup`: descend by summing label widths
  /// instead of reading `bit_pos`. Property tests assert both agree
  /// bit-for-bit with `compatible`.
  Target lookup_walk(const util::BitString& id_bits) const;

  /// The paper's compatibility predicate (§3, Figure 2): true when the valid
  /// bit of every label in the leaf's hyper-label equals the id bit at that
  /// label position. Implemented independently of `lookup`; property tests
  /// assert both agree.
  bool compatible(const util::BitString& id_bits, IAgentId leaf) const;

  /// --- Structure inspection ------------------------------------------------

  std::size_t leaf_count() const noexcept { return leaf_index_.size(); }
  std::uint64_t version() const noexcept { return version_; }

  bool contains(IAgentId leaf) const noexcept {
    return leaf_index_.contains(leaf);
  }

  /// Pre-size the leaf index for an expected population — delta replays
  /// know their net split count up front and would otherwise rehash the
  /// index repeatedly while growing.
  void reserve_leaves(std::size_t leaves) { leaf_index_.reserve(leaves); }

  /// Node currently hosting the given IAgent. Throws if unknown.
  NodeLocation location_of(IAgentId leaf) const;

  /// Record that an IAgent moved (bumps version).
  void set_location(IAgentId leaf, NodeLocation location);

  /// Hyper-label segments of a leaf: segment 0 is the root padding (may be
  /// empty), the rest are the edge labels down to the leaf. Throws if
  /// unknown.
  std::vector<util::BitString> hyper_label_segments(IAgentId leaf) const;

  /// The (position, value) pairs of the valid bits on a leaf's root→leaf
  /// path — the leaf's responsibility predicate, extracted without copying
  /// any label. Throws if unknown.
  std::vector<std::pair<std::uint32_t, bool>> valid_bits(IAgentId leaf) const;

  /// Bit `point.bit` of segment `point.segment` of the leaf's hyper-label
  /// (segment 0 = root padding), without materializing the segments.
  /// Throws `std::out_of_range` when the point does not exist.
  bool label_bit(IAgentId leaf, const SplitPoint& point) const;

  /// Dotted rendering, e.g. "1.0" or "0.011.0"; root padding, when present,
  /// is shown as a leading "(pad)" segment. Matches the paper's notation.
  std::string hyper_label(IAgentId leaf) const;

  /// Total id bits consumed to reach the leaf.
  std::size_t depth_bits(IAgentId leaf) const;

  /// Height in edges.
  std::size_t height() const;

  /// All IAgent ids at leaves, in left-to-right order.
  std::vector<IAgentId> leaves() const;

  /// Visit every leaf with its target info.
  void for_each_leaf(
      const std::function<void(IAgentId, NodeLocation)>& fn) const;

  /// --- Rehashing (paper §4) -----------------------------------------------

  /// Simple split (§4.1): split leaf `victim` on the m-th not-yet-used bit.
  /// The victim keeps the 0-side; `new_iagent` (hosted at `new_location`)
  /// takes the 1-side. Requires m >= 1. Only the victim's agents are
  /// remapped. Throws if `victim` is unknown or `new_iagent` already exists.
  void simple_split(IAgentId victim, std::size_t m, IAgentId new_iagent,
                    NodeLocation new_location);

  /// All positions where a complex split of `victim` could reclaim a padding
  /// bit, in the paper's preference order: left-most label first, and within
  /// a label the first bit after the valid bit first.
  std::vector<SplitPoint> complex_split_candidates(IAgentId victim) const;

  /// Global id-bit position a split at `point` would discriminate on.
  /// The caller projects per-agent load over this bit to judge evenness.
  std::size_t split_point_bit_position(IAgentId victim,
                                       const SplitPoint& point) const;

  /// Complex split (§4.1): reclaim the padding bit at `point` on `victim`'s
  /// path. The new IAgent takes the agents whose id bit at the reclaimed
  /// position is the complement of the recorded padding bit. When the
  /// reclaimed bit lies on an interior edge, those agents may come from every
  /// leaf of that subtree (see DESIGN.md §6.3).
  void complex_split(IAgentId victim, const SplitPoint& point,
                     IAgentId new_iagent, NodeLocation new_location);

  /// Merge (§4.2): remove leaf `victim`. Simple merge when its sibling is a
  /// leaf (the sibling absorbs the load; the tree shrinks); complex merge
  /// when the sibling is internal (the sibling's subtree is spliced into the
  /// parent position and the removed leaf's agents redistribute by
  /// re-lookup). Merging the last leaf is an error.
  MergeResult merge(IAgentId victim);

  /// Aggregate shape statistics — the balance story behind the benches.
  struct Stats {
    std::size_t leaves = 0;
    std::size_t internal_nodes = 0;
    std::size_t height = 0;            ///< edges on the longest path
    std::size_t min_depth_bits = 0;    ///< id bits consumed, shallowest leaf
    std::size_t max_depth_bits = 0;    ///< id bits consumed, deepest leaf
    double mean_depth_bits = 0.0;
    std::size_t padding_bits = 0;      ///< label bits that do not discriminate
    std::size_t total_label_bits = 0;  ///< all label bits incl. root padding
  };
  Stats stats() const;

  /// --- Integrity / serialization ------------------------------------------

  /// Verify every structural invariant (two children or leaf, complementary
  /// valid bits, non-empty labels, `bit_pos` equal to the parent's plus the
  /// label width, index consistency, unique IAgent ids, exactly 2L-1
  /// reachable slots). Throws `std::logic_error` describing the first
  /// violation.
  void validate() const;

  void serialize(util::ByteWriter& writer) const;
  static HashTree deserialize(util::ByteReader& reader);

  /// Serialized size in bytes — what the HAgent ships to a refreshing
  /// LHAgent. Computed analytically (one allocation-free node walk, no
  /// actual serialization), so callers can compare delta vs. snapshot cost
  /// before encoding either.
  std::size_t serialized_bytes() const;

  /// Structural equality (labels, leaves, locations; version included). Slot
  /// layout is not compared: trees that took different mutation paths to the
  /// same shape are equal.
  friend bool operator==(const HashTree& a, const HashTree& b);

  /// How a leaf is captioned in renderings; defaults to "IA<id>".
  using LeafNamer = std::function<std::string(IAgentId)>;

  /// Multi-line ASCII art of the tree (used by the figure benches).
  std::string render_ascii(const LeafNamer& namer = nullptr) const;

  /// GraphViz dot output.
  std::string render_dot(const LeafNamer& namer = nullptr) const;

 private:
  /// Slot index sentinel: no child (on leaves) or no parent (at the root).
  static constexpr std::uint32_t kNone = 0xffffffffu;

  struct Node {
    /// Id bits consumed through this node's label. On an internal node this
    /// is the absolute id-bit position its children discriminate on.
    std::uint32_t bit_pos = 0;
    /// Children by valid bit; both kNone on a leaf.
    std::uint32_t child[2] = {kNone, kNone};
    std::uint32_t parent = kNone;
    NodeLocation location = 0;    ///< leaf payload
    IAgentId iagent = kNoIAgent;  ///< leaf payload; kNoIAgent when internal

    bool is_leaf() const noexcept { return child[0] == kNone; }
  };
  static_assert(sizeof(Node) == 32, "a lookup hop reads one 32-byte node");

  HashTree() = default;  ///< empty; `deserialize` fills it

  std::uint32_t leaf_for(IAgentId id) const;
  /// Slots from the root down to `slot`.
  std::vector<std::uint32_t> path_to(std::uint32_t slot) const;
  /// Store a node and its label in a free slot (or a new one).
  std::uint32_t add_node(const Node& node, util::BitString label);
  void bump_version() noexcept { ++version_; }

  std::vector<Node> nodes_;
  /// Edge label from the parent, by slot; at the root, the root padding
  /// (possibly empty, no valid bit).
  std::vector<util::BitString> labels_;
  std::uint32_t root_ = 0;
  /// Slots freed by merges, reused by splits (LIFO).
  std::vector<std::uint32_t> free_;
  /// Leaf id → slot. Open-addressing map: copies and deserializes carry one
  /// entry per leaf, and `std::unordered_map`'s per-entry heap nodes made
  /// that bookkeeping the dominant cost of both paths.
  util::FlatMap<IAgentId, std::uint32_t, kNoIAgent> leaf_index_;
  std::uint64_t version_ = 1;
};

}  // namespace agentloc::hashtree
