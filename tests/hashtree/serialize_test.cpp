#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

#include "hashtree/paper_figures.hpp"
#include "hashtree/tree.hpp"
#include "util/bytebuffer.hpp"
#include "util/rng.hpp"

namespace agentloc::hashtree {
namespace {

TEST(Serialize, RoundTripSingleLeaf) {
  const HashTree tree(42, 3);
  util::ByteWriter writer;
  tree.serialize(writer);
  util::ByteReader reader(writer.bytes());
  const HashTree copy = HashTree::deserialize(reader);
  EXPECT_EQ(copy, tree);
  EXPECT_TRUE(reader.exhausted());
}

TEST(Serialize, RoundTripFigure1) {
  const HashTree tree = figure1_tree();
  util::ByteWriter writer;
  tree.serialize(writer);
  util::ByteReader reader(writer.bytes());
  const HashTree copy = HashTree::deserialize(reader);
  EXPECT_EQ(copy, tree);
  EXPECT_EQ(copy.version(), tree.version());
  EXPECT_EQ(copy.hyper_label(kIA0), "0.011.1.0");
  copy.validate();
}

TEST(Serialize, RoundTripPreservesVersionAndLocations) {
  HashTree tree = figure1_tree();
  tree.set_location(kIA3, 77);
  tree.simple_split(kIA5, 2, 99, 8);
  util::ByteWriter writer;
  tree.serialize(writer);
  util::ByteReader reader(writer.bytes());
  const HashTree copy = HashTree::deserialize(reader);
  EXPECT_EQ(copy, tree);
  EXPECT_EQ(copy.location_of(kIA3), 77u);
  EXPECT_EQ(copy.version(), tree.version());
}

TEST(Serialize, SerializedBytesMatchesWriterOutput) {
  const HashTree tree = figure1_tree();
  util::ByteWriter writer;
  tree.serialize(writer);
  EXPECT_EQ(tree.serialized_bytes(), writer.size());
  // Figure 1's tree is small: the snapshot an LHAgent pulls is well under a
  // kilobyte.
  EXPECT_LT(tree.serialized_bytes(), 200u);
}

TEST(Serialize, BadMagicThrows) {
  util::ByteWriter writer;
  writer.write_u32(0x12345678);
  writer.write_varint(1);
  util::ByteReader reader(writer.bytes());
  EXPECT_THROW(HashTree::deserialize(reader), std::invalid_argument);
}

TEST(Serialize, TruncatedStreamThrows) {
  const HashTree tree = figure1_tree();
  util::ByteWriter writer;
  tree.serialize(writer);
  auto bytes = writer.bytes();
  bytes.resize(bytes.size() / 2);
  util::ByteReader reader(bytes);
  EXPECT_THROW(HashTree::deserialize(reader), std::out_of_range);
}

TEST(Serialize, BadNodeFlagThrows) {
  util::ByteWriter writer;
  writer.write_u32(0x48545245);
  writer.write_varint(1);
  writer.write_u8(7);  // neither leaf nor internal
  writer.write_bits(util::BitString());
  util::ByteReader reader(writer.bytes());
  EXPECT_THROW(HashTree::deserialize(reader), std::invalid_argument);
}

TEST(Serialize, LeafWithZeroIAgentThrows) {
  util::ByteWriter writer;
  writer.write_u32(0x48545245);
  writer.write_varint(1);
  writer.write_u8(1);  // leaf
  writer.write_bits(util::BitString());
  writer.write_varint(0);  // invalid IAgent id
  writer.write_u32(0);
  util::ByteReader reader(writer.bytes());
  EXPECT_THROW(HashTree::deserialize(reader), std::invalid_argument);
}

TEST(Serialize, DuplicateLeafIdsFailValidation) {
  util::ByteWriter writer;
  writer.write_u32(0x48545245);
  writer.write_varint(1);
  writer.write_u8(0);  // internal root
  writer.write_bits(util::BitString());
  writer.write_u8(1);
  writer.write_bits(util::BitString::parse("0"));
  writer.write_varint(5);
  writer.write_u32(0);
  writer.write_u8(1);
  writer.write_bits(util::BitString::parse("1"));
  writer.write_varint(5);  // duplicate id
  writer.write_u32(0);
  util::ByteReader reader(writer.bytes());
  EXPECT_THROW(HashTree::deserialize(reader), std::logic_error);
}

TEST(Serialize, MismatchedValidBitFailsValidation) {
  util::ByteWriter writer;
  writer.write_u32(0x48545245);
  writer.write_varint(1);
  writer.write_u8(0);
  writer.write_bits(util::BitString());
  writer.write_u8(1);
  writer.write_bits(util::BitString::parse("1"));  // on the 0 side: invalid
  writer.write_varint(5);
  writer.write_u32(0);
  writer.write_u8(1);
  writer.write_bits(util::BitString::parse("1"));
  writer.write_varint(6);
  writer.write_u32(0);
  util::ByteReader reader(writer.bytes());
  EXPECT_THROW(HashTree::deserialize(reader), std::logic_error);
}

// --- Golden snapshots -------------------------------------------------------
// Snapshot size feeds simulated transfer times, so a drift in the wire format
// would otherwise surface only indirectly, through the exact bench gates.
// These pin the encoded bytes themselves.

std::string hex(const std::vector<std::uint8_t>& bytes) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out;
  for (const std::uint8_t byte : bytes) {
    out += kDigits[byte >> 4];
    out += kDigits[byte & 15];
  }
  return out;
}

/// A tree shaped by a seeded 64-op sequence that covers every mutation:
/// simple splits with m = 1..3, complex splits (one reclaiming root padding),
/// simple and complex merges, and relocations.
HashTree seeded_op_tree() {
  HashTree tree(1, 0);
  // Scripted start: an m = 3 split of the root leaves two bits of root
  // padding, and the next op reclaims one of them.
  tree.simple_split(1, 3, 2, 1);
  tree.complex_split(1, SplitPoint{0, 1}, 3, 2);
  int ops = 2;
  std::size_t simple_by_m[4] = {0, 0, 0, 1};
  std::size_t complex_splits = 1;
  std::size_t merges[2] = {0, 0};  // by MergeResult::Kind
  std::size_t relocations = 0;
  util::Rng rng(2003);
  IAgentId next_id = 4;
  NodeLocation next_node = 3;
  while (ops < 64) {
    const auto leaves = tree.leaves();
    const IAgentId victim = leaves[rng.next_below(leaves.size())];
    const auto roll = rng.next_below(10);
    if (roll < 4) {
      const std::size_t m = 1 + rng.next_below(3);
      tree.simple_split(victim, m, next_id++, next_node++ % 16);
      ++simple_by_m[m];
    } else if (roll < 6) {
      const auto candidates = tree.complex_split_candidates(victim);
      if (candidates.empty()) continue;
      tree.complex_split(victim, candidates[rng.next_below(candidates.size())],
                         next_id++, next_node++ % 16);
      ++complex_splits;
    } else if (roll < 9) {
      if (tree.leaf_count() == 1) continue;
      ++merges[static_cast<int>(tree.merge(victim).kind)];
    } else {
      tree.set_location(victim, next_node++ % 16);
      ++relocations;
    }
    ++ops;
  }
  EXPECT_GT(simple_by_m[1], 0u);
  EXPECT_GT(simple_by_m[2], 0u);
  EXPECT_GT(simple_by_m[3], 0u);
  EXPECT_GT(complex_splits, 1u);
  EXPECT_GT(merges[0], 0u);
  EXPECT_GT(merges[1], 0u);
  EXPECT_GT(relocations, 0u);
  tree.validate();
  return tree;
}

TEST(Serialize, GoldenBytesFigure1) {
  const HashTree tree = figure1_tree();
  util::ByteWriter writer;
  tree.serialize(writer);
  EXPECT_EQ(hex(writer.bytes()),
            "4552544801000000010000036001010003020000000001800101000100000000"
            "0101800504000000010280020100000000018001010004030000000001800101"
            "0006050000000101800706000000");
  EXPECT_EQ(tree.serialized_bytes(), 78u);
}

TEST(Serialize, GoldenBytesSeededOps) {
  const HashTree tree = seeded_op_tree();
  EXPECT_EQ(tree.version(), 65u);
  util::ByteWriter writer;
  tree.serialize(writer);
  EXPECT_EQ(hex(writer.bytes()),
            "45525448410000000100000802000200000100000300010200090a0000000001"
            "800101001a00000000010180220b0000000102801d060000000002800101000f"
            "010000000002800101001e070000000101801f080000000001800101000d0e00"
            "0000010180230c000000000380000100000200010100030d0000000102801407"
            "00000000018001010012040000000101801b0100000000058001010006050000"
            "000101801508000000000280010100170e000000010180210a000000");
  EXPECT_EQ(tree.serialized_bytes(), 188u);
}

}  // namespace
}  // namespace agentloc::hashtree
