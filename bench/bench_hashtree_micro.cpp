// Microbenchmarks (google-benchmark) of the hash-function data structure:
// the costs behind every location operation — lookup, split, merge,
// serialization — as the tree grows. These back DESIGN.md's claim that the
// mapping step is negligible next to a single network hop.

#include <benchmark/benchmark.h>

#include "bench_json.hpp"
#include "hashtree/tree.hpp"
#include "util/bench_report.hpp"
#include "util/bytebuffer.hpp"
#include "util/rng.hpp"

using namespace agentloc;
using hashtree::HashTree;
using hashtree::IAgentId;

namespace {

/// Grow a tree to `leaves` leaves with randomized even/deep splits.
HashTree make_tree(std::size_t leaves, std::uint64_t seed) {
  util::Rng rng(seed);
  HashTree tree(1, 0);
  IAgentId next = 2;
  while (tree.leaf_count() < leaves) {
    const auto all = tree.leaves();
    const IAgentId victim = all[rng.next_below(all.size())];
    tree.simple_split(victim, 1 + rng.next_below(2), next++,
                      static_cast<hashtree::NodeLocation>(rng.next_below(16)));
  }
  return tree;
}

void BM_Lookup(benchmark::State& state) {
  const HashTree tree = make_tree(static_cast<std::size_t>(state.range(0)), 7);
  util::Rng rng(99);
  for (auto _ : state) {
    const auto id = util::BitString::from_uint(rng.next(), 64);
    benchmark::DoNotOptimize(tree.lookup(id));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_Lookup)->Arg(2)->Arg(16)->Arg(128)->Arg(1024);

/// The allocation-free fast path: the hashed id stays in a register end to
/// end, so this row isolates the node-array walk itself.
void BM_LookupU64(benchmark::State& state) {
  const HashTree tree = make_tree(static_cast<std::size_t>(state.range(0)), 7);
  util::Rng rng(99);
  for (auto _ : state) {
    benchmark::DoNotOptimize(tree.lookup_id(rng.next()));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_LookupU64)->Arg(2)->Arg(16)->Arg(128)->Arg(1024);

void BM_Compatible(benchmark::State& state) {
  const HashTree tree = make_tree(64, 7);
  const auto leaves = tree.leaves();
  util::Rng rng(99);
  for (auto _ : state) {
    const auto id = util::BitString::from_uint(rng.next(), 64);
    benchmark::DoNotOptimize(
        tree.compatible(id, leaves[rng.next_below(leaves.size())]));
  }
}
BENCHMARK(BM_Compatible);

void BM_SplitMergeCycle(benchmark::State& state) {
  HashTree tree = make_tree(static_cast<std::size_t>(state.range(0)), 7);
  IAgentId next = 1'000'000;
  util::Rng rng(11);
  for (auto _ : state) {
    const auto all = tree.leaves();
    const IAgentId victim = all[rng.next_below(all.size())];
    const IAgentId fresh = next++;
    tree.simple_split(victim, 1, fresh, 0);
    tree.merge(fresh);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_SplitMergeCycle)->Arg(16)->Arg(256);

void BM_Serialize(benchmark::State& state) {
  const HashTree tree = make_tree(static_cast<std::size_t>(state.range(0)), 7);
  for (auto _ : state) {
    util::ByteWriter writer;
    tree.serialize(writer);
    benchmark::DoNotOptimize(writer.bytes().data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(
      state.iterations() * tree.serialized_bytes()));
}
BENCHMARK(BM_Serialize)->Arg(16)->Arg(256)->Arg(1024);

void BM_Deserialize(benchmark::State& state) {
  const HashTree tree = make_tree(static_cast<std::size_t>(state.range(0)), 7);
  util::ByteWriter writer;
  tree.serialize(writer);
  for (auto _ : state) {
    util::ByteReader reader(writer.bytes());
    benchmark::DoNotOptimize(HashTree::deserialize(reader));
  }
}
BENCHMARK(BM_Deserialize)->Arg(16)->Arg(256);

void BM_CopyTree(benchmark::State& state) {
  const HashTree tree = make_tree(static_cast<std::size_t>(state.range(0)), 7);
  for (auto _ : state) {
    HashTree copy = tree;
    benchmark::DoNotOptimize(copy.leaf_count());
  }
}
BENCHMARK(BM_CopyTree)->Arg(16)->Arg(256);

void BM_PredicateMatch(benchmark::State& state) {
  util::Rng rng(5);
  for (auto _ : state) {
    benchmark::DoNotOptimize(util::mix64(rng.next()));
  }
}
BENCHMARK(BM_PredicateMatch);

}  // namespace

int main(int argc, char** argv) {
  util::BenchReport report("hashtree_micro");
  return benchjson::run_and_write(argc, argv, report);
}
