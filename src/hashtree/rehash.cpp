// Rehashing operations of the hash tree (paper §4): simple/complex split and
// simple/complex merge. See DESIGN.md §6 for the label bookkeeping rules.

#include <stdexcept>
#include <utility>

#include "hashtree/tree.hpp"

namespace agentloc::hashtree {

void HashTree::simple_split(IAgentId victim, std::size_t m,
                            IAgentId new_iagent, NodeLocation new_location) {
  if (m == 0) {
    throw std::invalid_argument("simple_split: m must be >= 1");
  }
  if (new_iagent == kNoIAgent || leaf_index_.contains(new_iagent)) {
    throw std::invalid_argument("simple_split: bad new IAgent id");
  }
  const std::uint32_t slot = leaf_for(victim);

  // Splitting "on the m-th bit": the m-1 bits before it stop discriminating
  // and are recorded as padding on the incoming edge (root padding when the
  // leaf is the root), so the new internal node tests the id bit right after
  // them.
  for (std::size_t i = 1; i < m; ++i) labels_[slot].push_back(false);
  const std::uint32_t bit_pos =
      nodes_[slot].bit_pos + static_cast<std::uint32_t>(m) - 1;

  Node leaf;
  leaf.bit_pos = bit_pos + 1;
  leaf.parent = slot;
  leaf.iagent = victim;
  leaf.location = nodes_[slot].location;
  const std::uint32_t zero = add_node(leaf, util::BitString{false});
  leaf.iagent = new_iagent;
  leaf.location = new_location;
  const std::uint32_t one = add_node(leaf, util::BitString{true});

  Node& split = nodes_[slot];
  split.bit_pos = bit_pos;
  split.child[0] = zero;
  split.child[1] = one;
  split.iagent = kNoIAgent;
  split.location = 0;
  leaf_index_[victim] = zero;
  leaf_index_.emplace(new_iagent, one);
  bump_version();
}

std::vector<SplitPoint> HashTree::complex_split_candidates(
    IAgentId victim) const {
  const auto segments = hyper_label_segments(victim);
  std::vector<SplitPoint> candidates;
  for (std::size_t s = 0; s < segments.size(); ++s) {
    // Segment 0 is the root padding: every bit is reclaimable. For edge
    // labels the first bit is the valid bit; only the rest are padding.
    const std::size_t first = s == 0 ? 0 : 1;
    for (std::size_t b = first; b < segments[s].size(); ++b) {
      candidates.push_back(SplitPoint{s, b});
    }
  }
  return candidates;
}

std::size_t HashTree::split_point_bit_position(IAgentId victim,
                                               const SplitPoint& point) const {
  const auto segments = hyper_label_segments(victim);
  if (point.segment >= segments.size()) {
    throw std::out_of_range("split_point_bit_position: segment");
  }
  std::size_t position = 0;
  for (std::size_t s = 0; s < point.segment; ++s) {
    position += segments[s].size();
  }
  if (point.bit >= segments[point.segment].size()) {
    throw std::out_of_range("split_point_bit_position: bit");
  }
  return position + point.bit;
}

void HashTree::complex_split(IAgentId victim, const SplitPoint& point,
                             IAgentId new_iagent, NodeLocation new_location) {
  if (new_iagent == kNoIAgent || leaf_index_.contains(new_iagent)) {
    throw std::invalid_argument("complex_split: bad new IAgent id");
  }
  // Locate the node whose (incoming) label carries the padding bit.
  const auto path = path_to(leaf_for(victim));
  if (point.segment >= path.size()) {
    throw std::out_of_range("complex_split: segment");
  }
  const std::uint32_t v = path[point.segment];
  const util::BitString label = labels_[v];
  const std::size_t j = point.bit;
  const std::size_t first_padding = point.segment == 0 ? 0 : 1;
  if (j < first_padding || j >= label.size()) {
    throw std::out_of_range("complex_split: bit is not a padding bit");
  }

  // A new internal node `w` takes `v`'s place under its parent (or as the
  // root) and keeps the unreclaimed label prefix; the reclaimed bit becomes
  // the valid bit of `v`'s shortened edge. The new leaf sits on the
  // complementary side with identical trailing padding (the trailing bits
  // are wildcards either way). The two halves sum to the old label width,
  // so every `bit_pos` below the split point is unchanged.
  const bool reclaimed = label[j];
  const std::uint32_t up = nodes_[v].parent;
  Node mid;
  mid.bit_pos = (up == kNone ? 0 : nodes_[up].bit_pos) +
                static_cast<std::uint32_t>(j);
  mid.parent = up;
  const std::uint32_t w = add_node(mid, label.prefix(j));

  Node leaf;
  leaf.bit_pos = nodes_[v].bit_pos;
  leaf.parent = w;
  leaf.iagent = new_iagent;
  leaf.location = new_location;
  util::BitString fresh;
  fresh.push_back(!reclaimed);
  fresh.append(label.suffix_from(j + 1));
  const std::uint32_t fresh_slot = add_node(leaf, std::move(fresh));

  nodes_[w].child[reclaimed ? 1 : 0] = v;
  nodes_[w].child[reclaimed ? 0 : 1] = fresh_slot;
  if (up == kNone) {
    root_ = w;
  } else {
    Node& parent = nodes_[up];
    parent.child[parent.child[1] == v ? 1 : 0] = w;
  }
  nodes_[v].parent = w;
  labels_[v] = label.suffix_from(j);
  leaf_index_.emplace(new_iagent, fresh_slot);
  bump_version();
}

MergeResult HashTree::merge(IAgentId victim) {
  const std::uint32_t v = leaf_for(victim);
  if (v == root_) {
    throw std::logic_error("merge: cannot merge the last IAgent");
  }
  const std::uint32_t p = nodes_[v].parent;
  Node& parent = nodes_[p];
  const std::uint32_t s = parent.child[parent.child[1] == v ? 0 : 1];
  const Node& sibling = nodes_[s];

  leaf_index_.erase(victim);
  MergeResult result;

  if (sibling.is_leaf()) {
    // Simple merge (paper Figure 5): the sibling absorbs the load and moves
    // up to the parent position; the tree height may shrink.
    result.kind = MergeResult::Kind::kSimple;
    result.into_iagent = sibling.iagent;
    parent.child[0] = kNone;
    parent.child[1] = kNone;
    parent.iagent = sibling.iagent;
    parent.location = sibling.location;
    leaf_index_[parent.iagent] = p;
  } else {
    // Complex merge (paper Figure 6): splice the sibling subtree into the
    // parent position. Concatenating the labels turns the sibling's valid
    // bit into padding, so every surviving leaf keeps its exact agent set
    // and bit positions — only the victim's agents remap (by re-lookup).
    result.kind = MergeResult::Kind::kComplex;
    labels_[p].append(labels_[s]);
    parent.bit_pos = sibling.bit_pos;
    parent.child[0] = sibling.child[0];
    parent.child[1] = sibling.child[1];
    nodes_[parent.child[0]].parent = p;
    nodes_[parent.child[1]].parent = p;
  }
  // Nothing reaches the two dead slots now; later splits reuse them.
  free_.push_back(s);
  free_.push_back(v);
  bump_version();
  return result;
}

}  // namespace agentloc::hashtree
