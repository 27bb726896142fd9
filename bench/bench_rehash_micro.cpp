// Microbenchmarks (google-benchmark) of the write path: rehash churn —
// splits, merges, relocations — interleaved with routed lookups. These back
// DESIGN.md §11's claim that a mutation costs O(path), not O(tree): each one
// edits the node array the next lookup reads, and nothing is rebuilt.
//
// The `_Patched` suffix on every row is historical (it named the arm that
// edited a separate routing array in place, against a cold-rebuild arm that
// no longer exists); the rows keep it so CI compares them against their
// committed baseline in BENCH_rehash_micro.json.

#include <benchmark/benchmark.h>

#include "bench_json.hpp"
#include "hashtree/tree.hpp"
#include "util/bench_report.hpp"
#include "util/rng.hpp"

using namespace agentloc;
using hashtree::HashTree;
using hashtree::IAgentId;
using hashtree::NodeLocation;

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
                      static_cast<NodeLocation>(rng.next_below(16)));
  }
  return tree;
}

constexpr int kLookupsPerMutation = 8;

/// The adaptation steady state: the tree keeps changing while clients keep
/// resolving. Each iteration applies one mutation (a split+merge cycle or a
/// relocation, leaf count invariant) followed by `kLookupsPerMutation`
/// routed lookups. Items = lookups, so items/s is lookup throughput under
/// churn.
void BM_ChurnLookup_Patched(benchmark::State& state) {
  HashTree tree = make_tree(static_cast<std::size_t>(state.range(0)), 7);
  const auto all = tree.leaves();
  util::Rng rng(99);
  IAgentId next = 1'000'000;
  for (auto _ : state) {
    const IAgentId victim = all[rng.next_below(all.size())];
    if (rng.chance(0.5)) {
      const IAgentId fresh = next++;
      tree.simple_split(victim, 1, fresh, 0);
      tree.merge(fresh);
    } else {
      tree.set_location(victim, static_cast<NodeLocation>(rng.next_below(16)));
    }
    for (int i = 0; i < kLookupsPerMutation; ++i) {
      benchmark::DoNotOptimize(tree.lookup_id(rng.next()));
    }
  }
  state.SetItemsProcessed(state.iterations() * kLookupsPerMutation);
}
BENCHMARK(BM_ChurnLookup_Patched)->Arg(64)->Arg(256)->Arg(1024);

/// Pure mutation throughput, with a single routed lookup after every
/// mutation. Items = mutations (each iteration is split + merge = 2).
void BM_MutationRate_Patched(benchmark::State& state) {
  HashTree tree = make_tree(static_cast<std::size_t>(state.range(0)), 7);
  const auto all = tree.leaves();
  util::Rng rng(11);
  IAgentId next = 1'000'000;
  for (auto _ : state) {
    const IAgentId victim = all[rng.next_below(all.size())];
    const IAgentId fresh = next++;
    tree.simple_split(victim, 1, fresh, 0);
    benchmark::DoNotOptimize(tree.lookup_id(rng.next()));
    tree.merge(fresh);
    benchmark::DoNotOptimize(tree.lookup_id(rng.next()));
  }
  state.SetItemsProcessed(state.iterations() * 2);
}
BENCHMARK(BM_MutationRate_Patched)->Arg(64)->Arg(1024);

/// Relocation-only churn (the kSetLocation fast path: an O(1) payload write
/// on the leaf's node), one routed lookup per relocation.
void BM_RelocateLookup_Patched(benchmark::State& state) {
  HashTree tree = make_tree(static_cast<std::size_t>(state.range(0)), 7);
  const auto all = tree.leaves();
  util::Rng rng(42);
  for (auto _ : state) {
    const IAgentId victim = all[rng.next_below(all.size())];
    tree.set_location(victim, static_cast<NodeLocation>(rng.next_below(16)));
    benchmark::DoNotOptimize(tree.lookup_id(rng.next()));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RelocateLookup_Patched)->Arg(1024);

}  // namespace

int main(int argc, char** argv) {
  util::BenchReport report("rehash_micro");
  return benchjson::run_and_write(argc, argv, report);
}
