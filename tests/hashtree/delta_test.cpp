#include "hashtree/delta.hpp"

#include <gtest/gtest.h>

#include "hashtree/paper_figures.hpp"
#include "util/rng.hpp"

namespace agentloc::hashtree {
namespace {

TreeOp simple_split_op(IAgentId victim, std::uint32_t m, IAgentId fresh,
                       NodeLocation node) {
  TreeOp op;
  op.kind = TreeOp::Kind::kSimpleSplit;
  op.victim = victim;
  op.m = m;
  op.new_iagent = fresh;
  op.location = node;
  return op;
}

TEST(TreeOp, ApplyMatchesDirectMutations) {
  HashTree direct = figure1_tree();
  HashTree replayed = figure1_tree();

  direct.simple_split(kIA3, 2, 100, 9);
  apply_op(replayed, simple_split_op(kIA3, 2, 100, 9));
  EXPECT_EQ(direct, replayed);

  direct.merge(kIA6);
  TreeOp merge_op;
  merge_op.kind = TreeOp::Kind::kMerge;
  merge_op.victim = kIA6;
  apply_op(replayed, merge_op);
  EXPECT_EQ(direct, replayed);

  const auto point = direct.complex_split_candidates(kIA1).front();
  direct.complex_split(kIA1, point, 101, 3);
  TreeOp complex_op;
  complex_op.kind = TreeOp::Kind::kComplexSplit;
  complex_op.victim = kIA1;
  complex_op.point = point;
  complex_op.new_iagent = 101;
  complex_op.location = 3;
  apply_op(replayed, complex_op);
  EXPECT_EQ(direct, replayed);

  direct.set_location(kIA5, 12);
  TreeOp move_op;
  move_op.kind = TreeOp::Kind::kSetLocation;
  move_op.victim = kIA5;
  move_op.location = 12;
  apply_op(replayed, move_op);
  EXPECT_EQ(direct, replayed);
}

TEST(TreeOp, SerializationRoundTrip) {
  TreeOp op;
  op.kind = TreeOp::Kind::kComplexSplit;
  op.victim = 0xdeadbeefcafef00dull;
  op.m = 3;
  op.point = SplitPoint{2, 1};
  op.new_iagent = 42;
  op.location = 7;

  util::ByteWriter writer;
  serialize_op(writer, op);
  util::ByteReader reader(writer.bytes());
  EXPECT_EQ(deserialize_op(reader), op);
  EXPECT_TRUE(reader.exhausted());
}

TEST(TreeOp, BadKindThrows) {
  util::ByteWriter writer;
  writer.write_u8(9);
  util::ByteReader reader(writer.bytes());
  EXPECT_THROW(deserialize_op(reader), std::invalid_argument);
}

TEST(TreeDelta, ApplyAdvancesStaleCopy) {
  HashTree primary(1, 0);
  HashTree secondary = primary;

  TreeJournal journal(16);
  const auto mutate = [&](const TreeOp& op) {
    apply_op(primary, op);
    journal.record(primary.version(), op);
  };
  mutate(simple_split_op(1, 1, 2, 1));
  mutate(simple_split_op(2, 1, 3, 2));
  mutate(simple_split_op(1, 2, 4, 3));

  const auto delta = journal.since(secondary.version());
  ASSERT_TRUE(delta.has_value());
  EXPECT_EQ(delta->ops.size(), 3u);
  delta->apply_to(secondary);
  EXPECT_EQ(secondary, primary);
}

TEST(TreeDelta, SerializationRoundTrip) {
  TreeDelta delta;
  delta.base_version = 5;
  delta.target_version = 7;
  delta.ops.push_back(simple_split_op(1, 1, 2, 1));
  delta.ops.push_back(simple_split_op(2, 2, 3, 4));

  util::ByteWriter writer;
  delta.serialize(writer);
  util::ByteReader reader(writer.bytes());
  const TreeDelta copy = TreeDelta::deserialize(reader);
  EXPECT_EQ(copy.base_version, 5u);
  EXPECT_EQ(copy.target_version, 7u);
  EXPECT_EQ(copy.ops, delta.ops);
}

TEST(TreeDelta, RejectsWrongBaseVersion) {
  HashTree tree(1, 0);
  TreeDelta delta;
  delta.base_version = 99;
  delta.target_version = 100;
  EXPECT_THROW(delta.apply_to(tree), std::logic_error);
}

TEST(TreeDelta, DeltaIsSmallerThanSnapshotForLargeTrees) {
  util::Rng rng(5);
  HashTree tree(1, 0);
  TreeJournal journal(64);
  IAgentId next = 2;
  for (int i = 0; i < 200; ++i) {
    const auto leaves = tree.leaves();
    const TreeOp op = simple_split_op(
        leaves[rng.next_below(leaves.size())], 1, next++, 0);
    apply_op(tree, op);
    journal.record(tree.version(), op);
  }
  const auto delta = journal.since(tree.version() - 3);
  ASSERT_TRUE(delta.has_value());
  EXPECT_LT(delta->serialized_bytes(), tree.serialized_bytes() / 10);
}

TEST(TreeJournal, ForgetsBeyondCapacity) {
  TreeJournal journal(2);
  HashTree tree(1, 0);
  for (IAgentId fresh = 2; fresh <= 5; ++fresh) {
    const TreeOp op = simple_split_op(1, 1, fresh, 0);
    apply_op(tree, op);
    journal.record(tree.version(), op);
  }
  EXPECT_EQ(journal.size(), 2u);
  EXPECT_FALSE(journal.since(1).has_value());          // too old
  EXPECT_TRUE(journal.since(tree.version() - 2).has_value());
  EXPECT_TRUE(journal.since(tree.version()).has_value());  // empty delta
  EXPECT_EQ(journal.since(tree.version())->ops.size(), 0u);
  EXPECT_FALSE(journal.since(tree.version() + 1).has_value());  // future
}

TEST(TreeJournal, TracksEncodedBytes) {
  TreeJournal journal(16);
  HashTree tree(1, 0);
  const std::uint64_t base = tree.version();
  std::size_t expected = 0;
  for (IAgentId fresh = 2; fresh <= 6; ++fresh) {
    const TreeOp op = simple_split_op(1, 1, fresh, 0);
    apply_op(tree, op);
    journal.record(tree.version(), op);
    expected += serialized_op_bytes(op);
  }
  EXPECT_EQ(journal.bytes(), expected);
  EXPECT_EQ(journal.truncations(), 0u);

  // The analytic per-op width must match the real encoder.
  const auto delta = journal.since(base);
  ASSERT_TRUE(delta.has_value());
  util::ByteWriter writer;
  for (const TreeOp& op : delta->ops) serialize_op(writer, op);
  EXPECT_EQ(writer.size(), expected);
}

TEST(TreeJournal, ByteBoundTruncatesOldestInOneBatch) {
  const TreeOp probe = simple_split_op(1, 1, 2, 0);
  const std::size_t op_bytes = serialized_op_bytes(probe);

  // Capacity is generous; the byte bound (room for 4 ops) is what binds.
  TreeJournal journal(1024, 4 * op_bytes);
  HashTree tree(1, 0);
  for (IAgentId fresh = 2; fresh <= 11; ++fresh) {
    const TreeOp op = simple_split_op(1, 1, fresh, 0);
    apply_op(tree, op);
    journal.record(tree.version(), op);
    EXPECT_LE(journal.bytes(), 4 * op_bytes);
  }
  EXPECT_EQ(journal.size(), 4u);
  EXPECT_EQ(journal.truncations(), 6u);  // one event per overflowing record
  EXPECT_FALSE(journal.since(tree.version() - 5).has_value());
  const auto delta = journal.since(tree.version() - 4);
  ASSERT_TRUE(delta.has_value());
  EXPECT_EQ(delta->ops.size(), 4u);
}

TEST(TreeJournal, ByteBoundAlwaysKeepsNewestOp) {
  const TreeOp probe = simple_split_op(1, 1, 2, 0);
  // Bound smaller than a single op: each record immediately truncates down
  // to just the newest op instead of emptying the journal.
  TreeJournal journal(8, serialized_op_bytes(probe) / 2);
  HashTree tree(1, 0);
  for (IAgentId fresh = 2; fresh <= 4; ++fresh) {
    const TreeOp op = simple_split_op(1, 1, fresh, 0);
    apply_op(tree, op);
    journal.record(tree.version(), op);
    EXPECT_EQ(journal.size(), 1u);
  }
  EXPECT_TRUE(journal.since(tree.version() - 1).has_value());
  EXPECT_FALSE(journal.since(tree.version() - 2).has_value());
}

TEST(TreeDelta, ReplayPatchesWarmRouterWithoutRebuild) {
  HashTree primary(1, 0);
  HashTree secondary = primary;
  (void)secondary.lookup_id(1);

  TreeJournal journal(64);
  util::Rng rng(3);
  IAgentId next = 2;
  for (int i = 0; i < 40; ++i) {
    const auto leaves = primary.leaves();
    const IAgentId fresh = next++;
    const TreeOp op = simple_split_op(leaves[rng.next_below(leaves.size())],
                                      1, fresh, fresh % 5);
    apply_op(primary, op);
    journal.record(primary.version(), op);
  }

  const auto delta = journal.since(secondary.version());
  ASSERT_TRUE(delta.has_value());
  delta->apply_to(secondary);
  // The replay edits the secondary's node array in place, op by op; the
  // result is structurally the primary and routes identically.
  EXPECT_EQ(secondary, primary);
  secondary.validate();
  for (std::uint64_t id = 0; id < 64; ++id) {
    const std::uint64_t probe = id * 0x9e3779b97f4a7c15ull;
    EXPECT_EQ(secondary.lookup_id(probe).iagent,
              primary.lookup_id(probe).iagent);
  }
}

TEST(TreeJournal, GapClearsHistory) {
  TreeJournal journal(8);
  journal.record(2, simple_split_op(1, 1, 2, 0));
  journal.record(5, simple_split_op(1, 1, 3, 0));  // gap: versions 3-4 lost
  EXPECT_FALSE(journal.since(2).has_value());
  EXPECT_TRUE(journal.since(4).has_value());
  EXPECT_EQ(journal.since(4)->ops.size(), 1u);
}

TEST(TreeJournal, RandomizedReplayEquivalence) {
  util::Rng rng(11);
  HashTree primary(1, 0);
  HashTree checkpoint = primary;
  TreeJournal journal(512);
  IAgentId next = 2;

  for (int i = 0; i < 150; ++i) {
    const auto leaves = primary.leaves();
    const IAgentId victim = leaves[rng.next_below(leaves.size())];
    TreeOp op;
    if (rng.chance(0.6) || primary.leaf_count() == 1) {
      op = simple_split_op(victim, 1 + static_cast<std::uint32_t>(
                                            rng.next_below(2)),
                           next++, static_cast<NodeLocation>(
                                       rng.next_below(8)));
    } else if (rng.chance(0.5)) {
      op.kind = TreeOp::Kind::kMerge;
      op.victim = victim;
    } else {
      op.kind = TreeOp::Kind::kSetLocation;
      op.victim = victim;
      op.location = static_cast<NodeLocation>(rng.next_below(8));
    }
    apply_op(primary, op);
    journal.record(primary.version(), op);
  }

  const auto delta = journal.since(checkpoint.version());
  ASSERT_TRUE(delta.has_value());
  delta->apply_to(checkpoint);
  EXPECT_EQ(checkpoint, primary);
  checkpoint.validate();
}

}  // namespace
}  // namespace agentloc::hashtree
