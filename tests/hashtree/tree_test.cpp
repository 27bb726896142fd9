#include "hashtree/tree.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>
#include <thread>
#include <vector>

#include "hashtree/paper_figures.hpp"
#include "util/rng.hpp"

namespace agentloc::hashtree {
namespace {

using util::BitString;

TEST(HashTree, SingleLeafServesEverything) {
  HashTree tree(42, 9);
  EXPECT_EQ(tree.leaf_count(), 1u);
  EXPECT_EQ(tree.lookup(BitString::parse("0")).iagent, 42u);
  EXPECT_EQ(tree.lookup(BitString::parse("1")).iagent, 42u);
  EXPECT_EQ(tree.lookup(BitString()).iagent, 42u);
  EXPECT_EQ(tree.lookup_id(0xdeadbeef).location, 9u);
  EXPECT_EQ(tree.height(), 0u);
  EXPECT_EQ(tree.depth_bits(42), 0u);
  tree.validate();
}

TEST(HashTree, RejectsZeroInitialId) {
  EXPECT_THROW(HashTree(kNoIAgent, 0), std::invalid_argument);
}

TEST(HashTree, Figure1Structure) {
  const HashTree tree = figure1_tree();
  tree.validate();
  EXPECT_EQ(tree.leaf_count(), 7u);
  EXPECT_EQ(tree.hyper_label(kIA0), "0.011.1.0");
  EXPECT_EQ(tree.hyper_label(kIA1), "0.10");
  EXPECT_EQ(tree.hyper_label(kIA2), "0.011.0");
  EXPECT_EQ(tree.hyper_label(kIA3), "1.0");
  EXPECT_EQ(tree.hyper_label(kIA4), "0.011.1.1");
  EXPECT_EQ(tree.hyper_label(kIA5), "1.1.0");
  EXPECT_EQ(tree.hyper_label(kIA6), "1.1.1");
  EXPECT_EQ(tree.height(), 4u);  // root→X→Y→V→IA0
}

TEST(HashTree, Figure1DepthBits) {
  const HashTree tree = figure1_tree();
  EXPECT_EQ(tree.depth_bits(kIA2), 5u);  // 0 + 011 + 0
  EXPECT_EQ(tree.depth_bits(kIA1), 3u);  // 0 + 10
  EXPECT_EQ(tree.depth_bits(kIA3), 2u);
  EXPECT_EQ(tree.depth_bits(kIA0), 6u);
}

TEST(HashTree, Figure2CompatibilityExample) {
  // Paper Figure 2: prefix 00110… is compatible with IA2's hyper-label
  // 0.011.0 — the valid bits (positions 0, 1, 4) all match.
  const HashTree tree = figure1_tree();
  const BitString prefix = BitString::parse("00110");
  EXPECT_TRUE(tree.compatible(prefix, kIA2));
  EXPECT_EQ(tree.lookup(prefix).iagent, kIA2);
  // Flipping a *valid* bit breaks compatibility…
  EXPECT_FALSE(tree.compatible(BitString::parse("10110"), kIA2));
  EXPECT_FALSE(tree.compatible(BitString::parse("00111"), kIA2));
  // …but flipping a padding bit (positions 2 and 3) does not.
  EXPECT_TRUE(tree.compatible(BitString::parse("00010"), kIA2));
  EXPECT_TRUE(tree.compatible(BitString::parse("00100"), kIA2));
}

TEST(HashTree, Figure1LookupRouting) {
  const HashTree tree = figure1_tree();
  // IA3 serves every id whose bits 0..1 are "10" (the paper's "IA3 serves
  // all agents with prefix 10").
  EXPECT_EQ(tree.lookup(BitString::parse("10")).iagent, kIA3);
  EXPECT_EQ(tree.lookup(BitString::parse("1011111")).iagent, kIA3);
  EXPECT_EQ(tree.lookup(BitString::parse("110")).iagent, kIA5);
  EXPECT_EQ(tree.lookup(BitString::parse("111")).iagent, kIA6);
  // IA1: bit0 = 0, bit1 = 1; bit2 is padding of label "10".
  EXPECT_EQ(tree.lookup(BitString::parse("010")).iagent, kIA1);
  EXPECT_EQ(tree.lookup(BitString::parse("011")).iagent, kIA1);
  // IA0/IA4: bit0 = 0, bit1 = 0, bits 2-3 padding, bit4 = 1, bit5 selects.
  EXPECT_EQ(tree.lookup(BitString::parse("001110")).iagent, kIA0);
  EXPECT_EQ(tree.lookup(BitString::parse("000011")).iagent, kIA4);
}

TEST(HashTree, LookupTreatsMissingBitsAsZero) {
  const HashTree tree = figure1_tree();
  EXPECT_EQ(tree.lookup(BitString()).iagent, kIA2);
  EXPECT_EQ(tree.lookup(BitString::parse("1")).iagent, kIA3);
}

TEST(HashTree, LookupAgreesWithCompatibilityForAllLeaves) {
  const HashTree tree = figure1_tree();
  // Every 6-bit id maps to exactly one leaf, and that leaf is the only
  // compatible one (compatibility partitions the id space).
  for (std::uint64_t value = 0; value < 64; ++value) {
    const BitString id = BitString::from_uint(value, 6);
    const IAgentId mapped = tree.lookup(id).iagent;
    int compatible_count = 0;
    for (IAgentId leaf : tree.leaves()) {
      if (tree.compatible(id, leaf)) {
        ++compatible_count;
        EXPECT_EQ(leaf, mapped) << "id " << id.to_string();
      }
    }
    EXPECT_EQ(compatible_count, 1) << "id " << id.to_string();
  }
}

TEST(HashTree, LeavesAreLeftToRight) {
  const HashTree tree = figure1_tree();
  const auto leaves = tree.leaves();
  ASSERT_EQ(leaves.size(), 7u);
  EXPECT_EQ(leaves[0], kIA2);
  EXPECT_EQ(leaves[1], kIA0);
  EXPECT_EQ(leaves[2], kIA4);
  EXPECT_EQ(leaves[3], kIA1);
  EXPECT_EQ(leaves[4], kIA3);
  EXPECT_EQ(leaves[5], kIA5);
  EXPECT_EQ(leaves[6], kIA6);
}

TEST(HashTree, LocationsTrackIAgents) {
  HashTree tree = figure1_tree();
  EXPECT_EQ(tree.location_of(kIA3), 3u);
  EXPECT_EQ(tree.lookup(BitString::parse("10")).location, 3u);
  const auto before = tree.version();
  tree.set_location(kIA3, 12);
  EXPECT_EQ(tree.location_of(kIA3), 12u);
  EXPECT_EQ(tree.lookup(BitString::parse("10")).location, 12u);
  EXPECT_GT(tree.version(), before);
  EXPECT_THROW(tree.location_of(999), std::out_of_range);
  EXPECT_THROW(tree.set_location(999, 1), std::out_of_range);
}

TEST(HashTree, ForEachLeafVisitsAll) {
  const HashTree tree = figure1_tree();
  std::size_t visits = 0;
  tree.for_each_leaf([&](IAgentId id, NodeLocation location) {
    ++visits;
    EXPECT_EQ(location, id - 1);  // IAk placed at node k
  });
  EXPECT_EQ(visits, 7u);
}

TEST(HashTree, CopyIsDeepAndIndependent) {
  HashTree original = figure1_tree();
  HashTree copy = original;
  EXPECT_EQ(copy, original);
  copy.set_location(kIA3, 99);
  EXPECT_EQ(original.location_of(kIA3), 3u);
  EXPECT_FALSE(copy == original);
  copy.validate();
  original.validate();

  HashTree assigned(1, 0);
  assigned = original;
  EXPECT_EQ(assigned, original);
  assigned.validate();
}

TEST(HashTree, MoveTransfersStructure) {
  HashTree original = figure1_tree();
  const HashTree reference = original;
  HashTree moved = std::move(original);
  EXPECT_EQ(moved, reference);
  moved.validate();
}

TEST(HashTree, SelfAssignment) {
  HashTree tree = figure1_tree();
  const HashTree reference = tree;
  tree = *&tree;
  EXPECT_EQ(tree, reference);
}

TEST(HashTree, UnknownLeafThrows) {
  const HashTree tree = figure1_tree();
  EXPECT_THROW(tree.hyper_label_segments(12345), std::out_of_range);
  EXPECT_THROW(tree.hyper_label(12345), std::out_of_range);
  EXPECT_THROW(tree.depth_bits(12345), std::out_of_range);
}

TEST(HashTree, ContainsReflectsLeaves) {
  const HashTree tree = figure1_tree();
  EXPECT_TRUE(tree.contains(kIA5));
  EXPECT_FALSE(tree.contains(999));
}

TEST(HashTree, RenderAsciiMentionsEveryLeaf) {
  const HashTree tree = figure1_tree();
  const std::string art = tree.render_ascii();
  for (IAgentId id : tree.leaves()) {
    EXPECT_NE(art.find("IA" + std::to_string(id)), std::string::npos);
  }
  EXPECT_NE(art.find("011"), std::string::npos);
}

TEST(HashTree, RenderDotIsWellFormed) {
  const HashTree tree = figure1_tree();
  const std::string dot = tree.render_dot();
  EXPECT_EQ(dot.find("digraph"), 0u);
  EXPECT_NE(dot.find("label=\"011\""), std::string::npos);
  EXPECT_NE(dot.rfind("}\n"), std::string::npos);
}

TEST(HashTree, StatsOnSingleLeaf) {
  const HashTree tree(5, 0);
  const auto stats = tree.stats();
  EXPECT_EQ(stats.leaves, 1u);
  EXPECT_EQ(stats.internal_nodes, 0u);
  EXPECT_EQ(stats.height, 0u);
  EXPECT_EQ(stats.min_depth_bits, 0u);
  EXPECT_EQ(stats.max_depth_bits, 0u);
  EXPECT_EQ(stats.padding_bits, 0u);
  EXPECT_EQ(stats.total_label_bits, 0u);
}

TEST(HashTree, StatsOnFigure1) {
  const HashTree tree = figure1_tree();
  const auto stats = tree.stats();
  EXPECT_EQ(stats.leaves, 7u);
  EXPECT_EQ(stats.internal_nodes, 6u);
  EXPECT_EQ(stats.height, 4u);
  EXPECT_EQ(stats.min_depth_bits, 2u);   // IA3 = 1.0
  EXPECT_EQ(stats.max_depth_bits, 6u);   // IA0/IA4 = 0.011.1.x
  // 13 edges: 0,011,0,1,0,1,10,1,0,1,0,1 → 15 label bits, of which "011"
  // carries 2 padding bits and "10" carries 1.
  EXPECT_EQ(stats.total_label_bits, 15u);
  EXPECT_EQ(stats.padding_bits, 3u);
  EXPECT_NEAR(stats.mean_depth_bits, (5 + 6 + 6 + 3 + 2 + 3 + 3) / 7.0, 1e-9);
}

TEST(HashTree, StatsCountRootPadding) {
  HashTree tree(5, 0);
  tree.simple_split(5, 3, 6, 1);  // root padding "00" + children 0/1
  const auto stats = tree.stats();
  EXPECT_EQ(stats.leaves, 2u);
  EXPECT_EQ(stats.padding_bits, 2u);  // the two root padding bits
  EXPECT_EQ(stats.total_label_bits, 4u);
  EXPECT_EQ(stats.min_depth_bits, 3u);
  EXPECT_EQ(stats.max_depth_bits, 3u);
}

TEST(HashTree, PaperNames) {
  EXPECT_EQ(paper_name(kIA0), "IA0");
  EXPECT_EQ(paper_name(kIA6), "IA6");
}

TEST(HashTreeParallel, ConcurrentLookupsOnSharedTree) {
  // Const methods are pure reads, so threads may share one tree without
  // synchronization — even a tree no lookup has touched yet. Run under the
  // tsan preset, this catches any lazily built or cached read-path state.
  HashTree tree(1, 0);
  util::Rng rng(5);
  IAgentId next = 2;
  while (tree.leaf_count() < 64) {
    const auto leaves = tree.leaves();
    const IAgentId fresh = next++;
    tree.simple_split(leaves[rng.next_below(leaves.size())],
                      1 + rng.next_below(2), fresh,
                      static_cast<NodeLocation>(fresh % 16));
  }
  // Expected answers come from a copy, so `tree` itself stays unread.
  const HashTree reference = tree;
  std::vector<std::uint64_t> ids;
  std::vector<HashTree::Target> expected;
  for (int i = 0; i < 256; ++i) {
    ids.push_back(rng.next());
    expected.push_back(reference.lookup_id(ids.back()));
  }
  const std::vector<IAgentId> expected_leaves = reference.leaves();

  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&] {
      for (int round = 0; round < 20; ++round) {
        for (std::size_t i = 0; i < ids.size(); ++i) {
          const auto by_id = tree.lookup_id(ids[i]);
          const auto by_bits = tree.lookup(BitString::from_uint(ids[i], 64));
          if (by_id.iagent != expected[i].iagent ||
              by_id.location != expected[i].location ||
              by_bits.iagent != expected[i].iagent) {
            ++mismatches;
          }
        }
        if (tree.leaves() != expected_leaves) ++mismatches;
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(mismatches.load(), 0);
}

}  // namespace
}  // namespace agentloc::hashtree
