// The read path (`lookup`/`lookup_id`, which test each node's pre-summed
// `bit_pos`) must be indistinguishable from descending by label widths. Unit
// tests pin lookups across mutations, copies and moves; the property tests
// drive randomized split / merge / set_location sequences — 40 seeds x 260
// mutations > 10k mutations total — asserting after every mutation that both
// lookups and the paper's `compatible` predicate agree bit for bit.
//
// The `CompiledRouter` suite keeps its name from when the routing array was
// a separate compiled copy of a pointer tree; that array is now the tree's
// only storage.

#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "hashtree/tree.hpp"
#include "util/bytebuffer.hpp"
#include "util/rng.hpp"

namespace agentloc::hashtree {
namespace {

using util::BitString;
using util::Rng;

TEST(CompiledRouter, SingleLeafRoutesEverywhere) {
  HashTree tree(7, 3);
  const auto target = tree.lookup_id(0xdeadbeef);
  EXPECT_EQ(target.iagent, 7u);
  EXPECT_EQ(target.location, 3u);
  EXPECT_EQ(tree.stats().internal_nodes, 0u);
}

TEST(CompiledRouter, MutationPatchesWarmRouterInLockstep) {
  HashTree tree(1, 0);
  (void)tree.lookup_id(42);

  tree.simple_split(1, 1, 2, 5);
  // The split edits the array the next lookup reads: no staleness window.
  for (const std::uint64_t id : {0ull, ~0ull, 0x1234567890abcdefull}) {
    const auto via_lookup = tree.lookup_id(id);
    const auto via_walk = tree.lookup_walk(BitString::from_uint(id, 64));
    EXPECT_EQ(via_lookup.iagent, via_walk.iagent);
    EXPECT_EQ(via_lookup.location, via_walk.location);
  }
  EXPECT_EQ(tree.stats().internal_nodes, 1u);  // two leaves + one internal
  tree.validate();
}

TEST(CompiledRouter, ColdRouterIsNotPatchedAndCompilesOnFirstRead) {
  HashTree tree(1, 0);
  // Mutations before the first lookup are visible to it.
  tree.simple_split(1, 1, 2, 5);
  tree.set_location(2, 7);
  const auto hit = tree.lookup_id(~0ull);
  EXPECT_EQ(hit.iagent, 2u);
  EXPECT_EQ(hit.location, 7u);
}

TEST(CompiledRouter, SetLocationInvalidatesCompiledLocations) {
  HashTree tree(1, 0);
  tree.simple_split(1, 1, 2, 5);
  const auto before = tree.lookup_id(0);
  tree.set_location(before.iagent, 99);
  EXPECT_EQ(tree.lookup_id(0).location, 99u);
}

TEST(CompiledRouter, CopiesStartColdButAgree) {
  HashTree tree(1, 0);
  tree.simple_split(1, 2, 2, 5);
  const HashTree copy = tree;
  for (std::uint64_t id = 0; id < 64; ++id) {
    const std::uint64_t probe = id * 0x9e3779b97f4a7c15ull;
    EXPECT_EQ(copy.lookup_id(probe).iagent, tree.lookup_id(probe).iagent);
  }
}

TEST(CompiledRouter, MoveCarriesCompiledRouter) {
  HashTree tree(1, 0);
  tree.simple_split(1, 1, 2, 5);
  const auto before = tree.lookup_id(~0ull);

  HashTree moved = std::move(tree);
  EXPECT_EQ(moved.lookup_id(~0ull).iagent, before.iagent);
  EXPECT_EQ(moved.lookup_id(~0ull).location, before.location);
  moved.validate();
}

TEST(CompiledRouter, CopyAssignmentDropsStaleRouter) {
  HashTree a(1, 0);
  a.simple_split(1, 1, 2, 5);
  (void)a.lookup_id(7);

  // `b` evolves to the same version number as `a` but different structure.
  HashTree b(9, 1);
  b.simple_split(9, 2, 10, 2);
  (void)b.lookup_id(7);

  b = a;
  for (std::uint64_t id = 0; id < 64; ++id) {
    const std::uint64_t probe = id * 0x9e3779b97f4a7c15ull;
    EXPECT_EQ(b.lookup_id(probe).iagent, a.lookup_id(probe).iagent);
    EXPECT_EQ(b.lookup_id(probe).location, a.lookup_id(probe).location);
  }
}

TEST(HashTree, MergeChurnKeepsRoutingExact) {
  HashTree tree(1, 0);
  IAgentId next_id = 2;
  NodeLocation next_node = 1;
  while (tree.leaf_count() < 80) {
    const auto leaves = tree.leaves();
    tree.simple_split(leaves[tree.leaf_count() / 2], 1, next_id++,
                      next_node++);
  }
  // Each merge frees two slots; the array keeps them for later splits, and
  // lookups never read them.
  while (tree.leaf_count() > 8) {
    tree.merge(tree.leaves().front());
  }
  tree.validate();  // exactly 2L-1 reachable slots, the rest free
  for (std::uint64_t id = 0; id < 64; ++id) {
    const std::uint64_t probe = id * 0x9e3779b97f4a7c15ull;
    const auto via_lookup = tree.lookup_id(probe);
    const auto via_walk =
        tree.lookup_walk(BitString::from_uint(probe, 64));
    ASSERT_EQ(via_lookup.iagent, via_walk.iagent);
    ASSERT_EQ(via_lookup.location, via_walk.location);
  }
  // Splits refill the freed slots.
  while (tree.leaf_count() < 80) {
    const auto leaves = tree.leaves();
    tree.simple_split(leaves[tree.leaf_count() / 2], 2, next_id++,
                      next_node++);
  }
  tree.validate();
}

/// The unique leaf whose hyper-label is compatible with `id` (paper §3) —
/// the slowest, most literal implementation, used as the ground truth.
IAgentId compatible_leaf(const HashTree& tree, const BitString& id) {
  IAgentId found = kNoIAgent;
  std::size_t matches = 0;
  for (const IAgentId leaf : tree.leaves()) {
    if (tree.compatible(id, leaf)) {
      ++matches;
      found = leaf;
    }
  }
  EXPECT_EQ(matches, 1u) << "id must match exactly one hyper-label";
  return found;
}

class RouterEquivalence : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RouterEquivalence, RandomMutationsKeepAllThreeLookupsInAgreement) {
  Rng rng(GetParam() * 0x9e3779b97f4a7c15ull + 1);

  std::vector<std::uint64_t> probes;
  for (int i = 0; i < 48; ++i) probes.push_back(rng.next());

  HashTree tree(1, 0);
  IAgentId next_id = 2;
  NodeLocation next_node = 1;

  for (int step = 0; step < 260; ++step) {
    // Mutate: split (simple or complex), merge, or relocate a leaf.
    const auto leaves = tree.leaves();
    const IAgentId victim = leaves[rng.next_below(leaves.size())];
    const auto roll = rng.next_below(10);
    if (roll < 4) {
      tree.simple_split(victim, 1 + rng.next_below(3), next_id++,
                        next_node++);
    } else if (roll < 6) {
      const auto candidates = tree.complex_split_candidates(victim);
      if (candidates.empty()) continue;
      tree.complex_split(victim, candidates[rng.next_below(candidates.size())],
                         next_id++, next_node++);
    } else if (roll < 9) {
      if (tree.leaf_count() > 1) tree.merge(victim);
    } else {
      tree.set_location(victim, next_node++);
    }

    // Equivalence after every mutation: both lookup entry points vs. the
    // label-width walk.
    for (const std::uint64_t id : probes) {
      const auto bits = BitString::from_uint(id, 64);
      const auto via_u64 = tree.lookup_id(id);
      const auto via_bits = tree.lookup(bits);
      const auto via_walk = tree.lookup_walk(bits);
      ASSERT_EQ(via_u64.iagent, via_walk.iagent);
      ASSERT_EQ(via_u64.location, via_walk.location);
      ASSERT_EQ(via_bits.iagent, via_walk.iagent);
      ASSERT_EQ(via_bits.location, via_walk.location);
    }

    // The in-place edits must stay structurally exact after every op:
    // `bit_pos` sums, parent links, and exactly 2L-1 reachable slots.
    tree.validate();

    // Edited in place ≡ built fresh: a decoded snapshot lays the same tree
    // out anew, in preorder.
    if (step % 10 == 9) {
      util::ByteWriter writer;
      tree.serialize(writer);
      util::ByteReader reader(writer.bytes());
      const HashTree fresh = HashTree::deserialize(reader);
      ASSERT_EQ(fresh, tree);
      for (const std::uint64_t id : probes) {
        const auto expect = tree.lookup_id(id);
        ASSERT_EQ(fresh.lookup_id(id).iagent, expect.iagent);
        ASSERT_EQ(fresh.lookup_id(id).location, expect.location);
      }
    }

    // The compatibility predicate is the third independent implementation;
    // it is quadratic in the leaf count, so sample it.
    if (step % 5 == 0) {
      for (int i = 0; i < 4; ++i) {
        const std::uint64_t id = probes[rng.next_below(probes.size())];
        const auto bits = BitString::from_uint(id, 64);
        ASSERT_EQ(tree.lookup(bits).iagent, compatible_leaf(tree, bits));
      }
    }

    // Serialization and copying must preserve the routing function too.
    if (step % 40 == 39) {
      util::ByteWriter writer;
      tree.serialize(writer);
      util::ByteReader reader(writer.bytes());
      const HashTree decoded = HashTree::deserialize(reader);
      const HashTree copied = tree;
      for (const std::uint64_t id : probes) {
        const auto expect = tree.lookup_id(id);
        ASSERT_EQ(decoded.lookup_id(id).iagent, expect.iagent);
        ASSERT_EQ(decoded.lookup_id(id).location, expect.location);
        ASSERT_EQ(copied.lookup_id(id).iagent, expect.iagent);
        ASSERT_EQ(copied.lookup_id(id).location, expect.location);
      }
    }
  }
  tree.validate();
}

INSTANTIATE_TEST_SUITE_P(Seeds, RouterEquivalence,
                         ::testing::Range<std::uint64_t>(0, 40));

}  // namespace
}  // namespace agentloc::hashtree
