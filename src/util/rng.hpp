#pragma once

#include <cstdint>
#include <limits>
#include <vector>

namespace agentloc::util {

/// Mix a 64-bit value through the SplitMix64 finalizer. Used both to seed
/// generators and as the library's default id-bit mixer: agent ids produced
/// by counters become uniformly distributed bit patterns, which is the
/// distribution extendible hashing assumes.
std::uint64_t mix64(std::uint64_t x) noexcept;

/// The inverse of `mix64`: `unmix64(mix64(x)) == x`. The platform recovers
/// an agent id's allocation ordinal this way instead of hashing the id.
std::uint64_t unmix64(std::uint64_t x) noexcept;

/// Deterministic pseudo-random generator (xoshiro256**).
///
/// Every stochastic component in the library — workload generation, latency
/// jitter, failure injection — draws from an `Rng` seeded from the experiment
/// configuration, so whole simulations replay bit-identically. Satisfies
/// `std::uniform_random_bit_generator`.
class Rng {
 public:
  using result_type = std::uint64_t;

  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ull) noexcept;

  static constexpr result_type min() noexcept { return 0; }
  static constexpr result_type max() noexcept {
    return std::numeric_limits<result_type>::max();
  }

  result_type operator()() noexcept { return next(); }
  std::uint64_t next() noexcept;

  /// Uniform integer in [0, bound). `bound` must be > 0 (debiased via
  /// rejection sampling).
  std::uint64_t next_below(std::uint64_t bound) noexcept;

  /// Uniform double in [0, 1).
  double uniform() noexcept;

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi) noexcept;

  /// Exponentially distributed value with the given mean (> 0). The workhorse
  /// of Poisson arrival processes in the workload generators.
  double exponential(double mean) noexcept;

  /// Bernoulli trial.
  bool chance(double probability) noexcept;

  /// Fork an independent, deterministic child stream. Components receive
  /// their own stream so adding a draw in one module cannot perturb another.
  Rng fork() noexcept;

  /// Fisher-Yates shuffle.
  template <typename T>
  void shuffle(std::vector<T>& items) noexcept {
    for (std::size_t i = items.size(); i > 1; --i) {
      using std::swap;
      swap(items[i - 1], items[next_below(i)]);
    }
  }

  /// Zipf-distributed rank in [0, n) with skew `s` (s = 0 is uniform).
  /// Used for skewed query popularity in ablation workloads.
  std::size_t zipf(std::size_t n, double s) noexcept;

 private:
  std::uint64_t state_[4];
};

}  // namespace agentloc::util
