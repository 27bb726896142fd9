#include "hashtree/tree.hpp"

#include <algorithm>
#include <stdexcept>

namespace agentloc::hashtree {

HashTree::HashTree(IAgentId initial, NodeLocation location) {
  if (initial == kNoIAgent) {
    throw std::invalid_argument("HashTree: initial IAgent id must be nonzero");
  }
  Node root;
  root.iagent = initial;
  root.location = location;
  root_ = add_node(root, util::BitString{});
  leaf_index_.emplace(initial, root_);
}

std::uint32_t HashTree::add_node(const Node& node, util::BitString label) {
  if (!free_.empty()) {
    const std::uint32_t slot = free_.back();
    free_.pop_back();
    nodes_[slot] = node;
    labels_[slot] = std::move(label);
    return slot;
  }
  nodes_.push_back(node);
  labels_.push_back(std::move(label));
  return static_cast<std::uint32_t>(nodes_.size() - 1);
}

std::uint32_t HashTree::leaf_for(IAgentId id) const {
  const std::uint32_t* found = leaf_index_.find(id);
  if (found == nullptr) {
    throw std::out_of_range("HashTree: unknown IAgent id");
  }
  return *found;
}

HashTree::Target HashTree::lookup(const util::BitString& id_bits) const {
  const Node* nodes = nodes_.data();
  const Node* node = nodes + root_;
  const std::size_t n = id_bits.size();
  while (!node->is_leaf()) {
    // Missing bits (id shorter than the path) read as zero.
    const std::size_t pos = node->bit_pos;
    node = nodes + node->child[pos < n && id_bits[pos] ? 1 : 0];
  }
  return Target{node->iagent, node->location};
}

HashTree::Target HashTree::lookup_id(std::uint64_t id) const {
  const Node* nodes = nodes_.data();
  const Node* node = nodes + root_;
  while (!node->is_leaf()) {
    const std::uint32_t pos = node->bit_pos;
    // Bits past the id's 64 read as zero.
    const std::uint64_t bit = pos < 64 ? (id >> (63 - pos)) & 1u : 0u;
    node = nodes + node->child[bit];
  }
  return Target{node->iagent, node->location};
}

HashTree::Target HashTree::lookup_walk(const util::BitString& id_bits) const {
  std::uint32_t slot = root_;
  // Bits consumed so far; the root padding is skipped outright.
  std::size_t pos = labels_[slot].size();
  while (!nodes_[slot].is_leaf()) {
    const bool bit = pos < id_bits.size() && id_bits[pos];
    slot = nodes_[slot].child[bit ? 1 : 0];
    pos += labels_[slot].size();  // valid bit + padding of the taken edge
  }
  return Target{nodes_[slot].iagent, nodes_[slot].location};
}

bool HashTree::compatible(const util::BitString& id_bits,
                          IAgentId leaf) const {
  // Paper §3: a prefix is compatible with a hyper-label iff the valid bit of
  // each label equals the id bit at the label's position within the
  // hyper-label. The root padding contributes no valid bit. Implemented over
  // the labels on the path directly and independently of both lookup paths;
  // property tests assert all three agree.
  const auto path = path_to(leaf_for(leaf));
  std::size_t pos = 0;
  for (std::size_t i = 0; i < path.size(); ++i) {
    const util::BitString& label = labels_[path[i]];
    if (i > 0) {
      const bool id_bit = pos < id_bits.size() && id_bits[pos];
      if (label[0] != id_bit) return false;
    }
    pos += label.size();
  }
  return true;
}

NodeLocation HashTree::location_of(IAgentId leaf) const {
  return nodes_[leaf_for(leaf)].location;
}

void HashTree::set_location(IAgentId leaf, NodeLocation location) {
  nodes_[leaf_for(leaf)].location = location;
  bump_version();
}

std::vector<std::uint32_t> HashTree::path_to(std::uint32_t slot) const {
  std::vector<std::uint32_t> path;
  for (; slot != kNone; slot = nodes_[slot].parent) path.push_back(slot);
  std::reverse(path.begin(), path.end());
  return path;
}

std::vector<util::BitString> HashTree::hyper_label_segments(
    IAgentId leaf) const {
  const auto path = path_to(leaf_for(leaf));
  std::vector<util::BitString> segments;
  segments.reserve(path.size());
  for (const std::uint32_t slot : path) segments.push_back(labels_[slot]);
  return segments;
}

std::vector<std::pair<std::uint32_t, bool>> HashTree::valid_bits(
    IAgentId leaf) const {
  const auto path = path_to(leaf_for(leaf));
  std::vector<std::pair<std::uint32_t, bool>> out;
  out.reserve(path.size() - 1);
  for (std::size_t i = 1; i < path.size(); ++i) {
    out.emplace_back(nodes_[path[i - 1]].bit_pos, labels_[path[i]][0]);
  }
  return out;
}

bool HashTree::label_bit(IAgentId leaf, const SplitPoint& point) const {
  const auto path = path_to(leaf_for(leaf));
  if (point.segment >= path.size()) {
    throw std::out_of_range("HashTree::label_bit: segment");
  }
  const util::BitString& label = labels_[path[point.segment]];
  if (point.bit >= label.size()) {
    throw std::out_of_range("HashTree::label_bit: bit");
  }
  return label[point.bit];
}

std::string HashTree::hyper_label(IAgentId leaf) const {
  const auto segments = hyper_label_segments(leaf);
  std::string out;
  for (std::size_t i = 0; i < segments.size(); ++i) {
    if (i == 0) {
      if (segments[0].empty()) continue;
      out += "(pad " + segments[0].to_string() + ")";
      continue;
    }
    if (!out.empty()) out += '.';
    out += segments[i].to_string();
  }
  return out;
}

std::size_t HashTree::depth_bits(IAgentId leaf) const {
  return nodes_[leaf_for(leaf)].bit_pos;
}

std::size_t HashTree::height() const { return stats().height; }

std::vector<IAgentId> HashTree::leaves() const {
  std::vector<IAgentId> out;
  out.reserve(leaf_index_.size());
  std::vector<std::uint32_t> stack{root_};
  while (!stack.empty()) {
    const Node& node = nodes_[stack.back()];
    stack.pop_back();
    if (node.is_leaf()) {
      out.push_back(node.iagent);
    } else {
      stack.push_back(node.child[1]);
      stack.push_back(node.child[0]);
    }
  }
  return out;
}

void HashTree::for_each_leaf(
    const std::function<void(IAgentId, NodeLocation)>& fn) const {
  for (IAgentId id : leaves()) {
    fn(id, nodes_[leaf_index_.at(id)].location);
  }
}

HashTree::Stats HashTree::stats() const {
  Stats out;
  std::size_t depth_sum = 0;
  std::vector<std::pair<std::uint32_t, std::size_t>> stack{{root_, 0}};
  while (!stack.empty()) {
    const auto [slot, depth_edges] = stack.back();
    stack.pop_back();
    const Node& node = nodes_[slot];
    out.total_label_bits += labels_[slot].size();
    if (node.is_leaf()) {
      ++out.leaves;
      depth_sum += node.bit_pos;
      if (out.leaves == 1) {
        out.min_depth_bits = out.max_depth_bits = node.bit_pos;
      } else {
        out.min_depth_bits = std::min<std::size_t>(out.min_depth_bits,
                                                   node.bit_pos);
        out.max_depth_bits = std::max<std::size_t>(out.max_depth_bits,
                                                   node.bit_pos);
      }
      out.height = std::max(out.height, depth_edges);
    } else {
      ++out.internal_nodes;
      stack.emplace_back(node.child[0], depth_edges + 1);
      stack.emplace_back(node.child[1], depth_edges + 1);
    }
  }
  // Only the valid (first) bit of each non-root edge label discriminates.
  out.padding_bits =
      out.total_label_bits - (out.leaves + out.internal_nodes - 1);
  out.mean_depth_bits =
      out.leaves > 0 ? static_cast<double>(depth_sum) /
                           static_cast<double>(out.leaves)
                     : 0.0;
  return out;
}

void HashTree::validate() const {
  std::size_t leaf_seen = 0;
  std::size_t reachable = 0;
  std::vector<std::uint32_t> stack{root_};
  while (!stack.empty()) {
    const std::uint32_t slot = stack.back();
    stack.pop_back();
    if (++reachable > nodes_.size()) {
      throw std::logic_error("HashTree: cycle in the node array");
    }
    const Node& node = nodes_[slot];
    const util::BitString& label = labels_[slot];
    if ((node.child[0] == kNone) != (node.child[1] == kNone)) {
      throw std::logic_error("HashTree: node with exactly one child");
    }
    std::size_t consumed = label.size();
    if (slot != root_) {
      if (label.empty()) {
        throw std::logic_error("HashTree: non-root node with empty label");
      }
      const Node& parent = nodes_[node.parent];
      if (label.front() != (parent.child[1] == slot)) {
        throw std::logic_error(
            "HashTree: valid bit disagrees with child position");
      }
      consumed += parent.bit_pos;
    }
    if (node.bit_pos != consumed) {
      throw std::logic_error(
          "HashTree: bit_pos is not the parent's plus the label width");
    }
    if (node.is_leaf()) {
      ++leaf_seen;
      if (node.iagent == kNoIAgent) {
        throw std::logic_error("HashTree: leaf without IAgent id");
      }
      const std::uint32_t* found = leaf_index_.find(node.iagent);
      if (found == nullptr || *found != slot) {
        throw std::logic_error("HashTree: leaf index inconsistent");
      }
    } else {
      if (node.iagent != kNoIAgent) {
        throw std::logic_error("HashTree: internal node carries IAgent id");
      }
      if (nodes_[node.child[0]].parent != slot ||
          nodes_[node.child[1]].parent != slot) {
        throw std::logic_error("HashTree: broken parent link");
      }
      stack.push_back(node.child[0]);
      stack.push_back(node.child[1]);
    }
  }
  if (leaf_seen != leaf_index_.size()) {
    throw std::logic_error("HashTree: index size mismatch");
  }
  if (reachable != 2 * leaf_seen - 1 ||
      reachable + free_.size() != nodes_.size()) {
    throw std::logic_error("HashTree: slot count mismatch");
  }
}

bool operator==(const HashTree& a, const HashTree& b) {
  if (a.version_ != b.version_) return false;
  std::vector<std::pair<std::uint32_t, std::uint32_t>> stack{
      {a.root_, b.root_}};
  while (!stack.empty()) {
    const auto [sa, sb] = stack.back();
    stack.pop_back();
    const HashTree::Node& na = a.nodes_[sa];
    const HashTree::Node& nb = b.nodes_[sb];
    if (a.labels_[sa] != b.labels_[sb] || na.iagent != nb.iagent ||
        na.location != nb.location || na.is_leaf() != nb.is_leaf()) {
      return false;
    }
    if (!na.is_leaf()) {
      stack.emplace_back(na.child[0], nb.child[0]);
      stack.emplace_back(na.child[1], nb.child[1]);
    }
  }
  return true;
}

}  // namespace agentloc::hashtree
