// Wire format of the hash tree: what the HAgent ships to LHAgents when a
// secondary copy refreshes. Preorder encoding, one flag byte per node.

#include <stdexcept>
#include <utility>
#include <vector>

#include "hashtree/tree.hpp"

namespace agentloc::hashtree {

namespace {
constexpr std::uint8_t kLeafFlag = 1;
constexpr std::uint8_t kInternalFlag = 0;
constexpr std::uint32_t kMagic = 0x48545245;  // "HTRE"
}  // namespace

void HashTree::serialize(util::ByteWriter& writer) const {
  // 2L-1 nodes at a handful of bytes each; one up-front growth.
  writer.reserve(16 + 24 * leaf_index_.size());
  writer.write_u32(kMagic);
  writer.write_varint(version_);
  std::vector<std::uint32_t> stack{root_};
  while (!stack.empty()) {
    const std::uint32_t slot = stack.back();
    stack.pop_back();
    const Node& node = nodes_[slot];
    writer.write_u8(node.is_leaf() ? kLeafFlag : kInternalFlag);
    writer.write_bits(labels_[slot]);
    if (node.is_leaf()) {
      writer.write_varint(node.iagent);
      writer.write_u32(node.location);
    } else {
      stack.push_back(node.child[1]);
      stack.push_back(node.child[0]);
    }
  }
}

HashTree HashTree::deserialize(util::ByteReader& reader) {
  if (reader.read_u32() != kMagic) {
    throw std::invalid_argument("HashTree::deserialize: bad magic");
  }
  HashTree tree;
  tree.version_ = reader.read_varint();
  // Below the root every leaf encodes to at least 8 bytes and every internal
  // node to at least 3, so L leaves need 11L - 4 bytes or more: the rest of
  // the input bounds the node count 2L - 1.
  const std::size_t max_nodes = 2 * (reader.remaining() + 4) / 11;
  tree.nodes_.reserve(max_nodes);
  tree.labels_.reserve(max_nodes);

  // Decode the preorder stream into slots in stream order (so a decoded
  // tree is laid out in preorder) with an explicit stack: each pending entry
  // names where the next decoded node attaches. Preorder means child 0's
  // whole subtree precedes child 1, so slot 1 is pushed first.
  //
  // Every tree invariant is checked inline as nodes decode — edge labels
  // non-empty with the valid bit matching the child slot, leaves carrying
  // unique nonzero IAgent ids — and the rest (two-or-zero children, parent
  // links, `bit_pos` sums, index consistency) holds by construction, so no
  // separate `validate()` pass over the finished tree is needed.
  struct Pending {
    std::uint32_t parent;
    int slot;
    std::size_t depth;
  };
  std::vector<Pending> stack{{kNone, 0, 0}};
  while (!stack.empty()) {
    const Pending at = stack.back();
    stack.pop_back();
    if (at.depth > 512) {
      throw std::invalid_argument("HashTree::deserialize: tree too deep");
    }
    const std::uint8_t flag = reader.read_u8();
    util::BitString label = reader.read_bits();
    Node node;
    node.parent = at.parent;
    node.bit_pos = static_cast<std::uint32_t>(label.size());
    if (at.parent != kNone) {
      if (label.empty()) {
        throw std::invalid_argument(
            "HashTree::deserialize: non-root node with empty label");
      }
      if (label.front() != (at.slot == 1)) {
        throw std::invalid_argument(
            "HashTree::deserialize: valid bit disagrees with child position");
      }
      node.bit_pos += tree.nodes_[at.parent].bit_pos;
    }
    const auto slot = static_cast<std::uint32_t>(tree.nodes_.size());
    if (flag == kLeafFlag) {
      node.iagent = reader.read_varint();
      node.location = static_cast<NodeLocation>(reader.read_u32());
      if (node.iagent == kNoIAgent) {
        throw std::invalid_argument(
            "HashTree::deserialize: leaf without IAgent");
      }
      if (!tree.leaf_index_.emplace(node.iagent, slot)) {
        throw std::invalid_argument(
            "HashTree::deserialize: duplicate IAgent id");
      }
    } else if (flag == kInternalFlag) {
      stack.push_back({slot, 1, at.depth + 1});
      stack.push_back({slot, 0, at.depth + 1});
    } else {
      throw std::invalid_argument("HashTree::deserialize: bad node flag");
    }
    if (at.parent != kNone) tree.nodes_[at.parent].child[at.slot] = slot;
    tree.nodes_.push_back(node);
    tree.labels_.push_back(std::move(label));
  }
  return tree;
}

std::size_t HashTree::serialized_bytes() const {
  // Mirror of `serialize` that only sums encoded widths: one flag byte and a
  // length-prefixed packed label per node, plus {varint iagent, u32 location}
  // per leaf. No buffer is materialized, so the HAgent can weigh a delta
  // against a snapshot on every pull without serializing either first.
  std::size_t bytes = 4 + util::varint_size(version_);
  std::vector<std::uint32_t> stack{root_};
  while (!stack.empty()) {
    const std::uint32_t slot = stack.back();
    stack.pop_back();
    const Node& node = nodes_[slot];
    const std::size_t label_bits = labels_[slot].size();
    bytes += 1 + util::varint_size(label_bits) + (label_bits + 7) / 8;
    if (node.is_leaf()) {
      bytes += util::varint_size(node.iagent) + 4;
    } else {
      stack.push_back(node.child[1]);
      stack.push_back(node.child[0]);
    }
  }
  return bytes;
}

}  // namespace agentloc::hashtree
