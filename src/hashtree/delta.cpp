#include "hashtree/delta.hpp"

#include <stdexcept>

namespace agentloc::hashtree {

void apply_op(HashTree& tree, const TreeOp& op) {
  switch (op.kind) {
    case TreeOp::Kind::kSimpleSplit:
      tree.simple_split(op.victim, op.m, op.new_iagent, op.location);
      return;
    case TreeOp::Kind::kComplexSplit:
      tree.complex_split(op.victim, op.point, op.new_iagent, op.location);
      return;
    case TreeOp::Kind::kMerge:
      tree.merge(op.victim);
      return;
    case TreeOp::Kind::kSetLocation:
      tree.set_location(op.victim, op.location);
      return;
  }
  throw std::invalid_argument("apply_op: unknown op kind");
}

void serialize_op(util::ByteWriter& writer, const TreeOp& op) {
  writer.write_u8(static_cast<std::uint8_t>(op.kind));
  writer.write_varint(op.victim);
  writer.write_varint(op.m);
  writer.write_varint(op.point.segment);
  writer.write_varint(op.point.bit);
  writer.write_varint(op.new_iagent);
  writer.write_u32(op.location);
}

std::size_t serialized_op_bytes(const TreeOp& op) {
  // Mirror of `serialize_op`: flag byte, five varints, u32 location.
  return 1 + util::varint_size(op.victim) + util::varint_size(op.m) +
         util::varint_size(op.point.segment) +
         util::varint_size(op.point.bit) +
         util::varint_size(op.new_iagent) + 4;
}

TreeOp deserialize_op(util::ByteReader& reader) {
  TreeOp op;
  const std::uint8_t kind = reader.read_u8();
  if (kind > static_cast<std::uint8_t>(TreeOp::Kind::kSetLocation)) {
    throw std::invalid_argument("deserialize_op: bad op kind");
  }
  op.kind = static_cast<TreeOp::Kind>(kind);
  op.victim = reader.read_varint();
  op.m = static_cast<std::uint32_t>(reader.read_varint());
  op.point.segment = reader.read_varint();
  op.point.bit = reader.read_varint();
  op.new_iagent = reader.read_varint();
  op.location = static_cast<NodeLocation>(reader.read_u32());
  return op;
}

void TreeDelta::serialize(util::ByteWriter& writer) const {
  writer.write_u32(0x48544456);  // "HTDV"
  writer.write_varint(base_version);
  writer.write_varint(target_version);
  writer.write_varint(ops.size());
  for (const TreeOp& op : ops) serialize_op(writer, op);
}

TreeDelta TreeDelta::deserialize(util::ByteReader& reader) {
  if (reader.read_u32() != 0x48544456) {
    throw std::invalid_argument("TreeDelta::deserialize: bad magic");
  }
  TreeDelta delta;
  delta.base_version = reader.read_varint();
  delta.target_version = reader.read_varint();
  const std::uint64_t count = reader.read_varint();
  if (count > 1'000'000) {
    throw std::invalid_argument("TreeDelta::deserialize: absurd op count");
  }
  delta.ops.reserve(count);
  for (std::uint64_t i = 0; i < count; ++i) {
    delta.ops.push_back(deserialize_op(reader));
  }
  return delta;
}

std::size_t TreeDelta::serialized_bytes() const {
  std::size_t bytes = 4 + util::varint_size(base_version) +
                      util::varint_size(target_version) +
                      util::varint_size(ops.size());
  for (const TreeOp& op : ops) bytes += serialized_op_bytes(op);
  return bytes;
}

void TreeDelta::apply_to(HashTree& tree) const {
  if (tree.version() != base_version) {
    throw std::logic_error("TreeDelta: tree is not at the base version");
  }
  // Pre-size the leaf index for the replay's net growth, then replay in one
  // pass. Each mutation edits the node array and the leaf index in place,
  // so nothing is rebuilt afterwards.
  std::size_t splits = 0;
  for (const TreeOp& op : ops) {
    splits += op.kind == TreeOp::Kind::kSimpleSplit ||
              op.kind == TreeOp::Kind::kComplexSplit;
  }
  tree.reserve_leaves(tree.leaf_count() + splits);
  for (const TreeOp& op : ops) apply_op(tree, op);
  if (tree.version() != target_version) {
    throw std::logic_error("TreeDelta: replay did not reach target version");
  }
}

void TreeJournal::record(std::uint64_t version_after, TreeOp op) {
  if (head_version_ != 0 && version_after != head_version_ + 1) {
    // A gap (e.g. an unrecorded mutation): the journal can no longer prove
    // continuity, so restart from here.
    ops_.clear();
    bytes_ = 0;
  }
  head_version_ = version_after;
  bytes_ += serialized_op_bytes(op);
  ops_.push_back(std::move(op));

  // Enforce both bounds by truncating from the oldest end; one batched
  // erase per crossing, counted once however many ops it drops. At least
  // the newest op is always retained.
  std::size_t drop = ops_.size() > capacity_ ? ops_.size() - capacity_ : 0;
  std::size_t kept_bytes = bytes_;
  for (std::size_t i = 0; i < drop; ++i) {
    kept_bytes -= serialized_op_bytes(ops_[i]);
  }
  if (max_bytes_ > 0) {
    while (drop + 1 < ops_.size() && kept_bytes > max_bytes_) {
      kept_bytes -= serialized_op_bytes(ops_[drop]);
      ++drop;
    }
  }
  if (drop > 0) {
    ops_.erase(ops_.begin(), ops_.begin() + static_cast<std::ptrdiff_t>(drop));
    bytes_ = kept_bytes;
    ++truncations_;
  }
}

std::optional<TreeDelta> TreeJournal::since(std::uint64_t version) const {
  if (version > head_version_ || head_version_ == 0) return std::nullopt;
  const std::uint64_t needed = head_version_ - version;
  if (needed > ops_.size()) return std::nullopt;
  TreeDelta delta;
  delta.base_version = version;
  delta.target_version = head_version_;
  delta.ops.assign(ops_.end() - static_cast<std::ptrdiff_t>(needed),
                   ops_.end());
  return delta;
}

}  // namespace agentloc::hashtree
