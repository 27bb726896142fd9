#include "util/rng.hpp"

#include <cmath>

namespace agentloc::util {

std::uint64_t mix64(std::uint64_t x) noexcept {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

namespace {
constexpr std::uint64_t rotl(std::uint64_t x, int k) noexcept {
  return (x << k) | (x >> (64 - k));
}
}  // namespace

// mix64's multipliers times their inverses modulo 2^64.
static_assert(0xbf58476d1ce4e5b9ull * 0x96de1b173f119089ull == 1);
static_assert(0x94d049bb133111ebull * 0x319642b2d24d8ec3ull == 1);

std::uint64_t unmix64(std::uint64_t x) noexcept {
  // mix64's steps in reverse: y = x ^ (x >> s) is undone by y ^ (y >> s) ^
  // (y >> 2s) ^ ..., and each multiply by its inverse.
  x ^= (x >> 31) ^ (x >> 62);
  x *= 0x319642b2d24d8ec3ull;
  x ^= (x >> 27) ^ (x >> 54);
  x *= 0x96de1b173f119089ull;
  x ^= (x >> 30) ^ (x >> 60);
  return x - 0x9e3779b97f4a7c15ull;
}

Rng::Rng(std::uint64_t seed) noexcept {
  // Expand the seed through SplitMix64 as the xoshiro authors recommend;
  // guards against the all-zero state.
  std::uint64_t s = seed;
  for (auto& word : state_) {
    s = mix64(s);
    word = s;
  }
  state_[0] |= 1;
}

std::uint64_t Rng::next() noexcept {
  const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
  const std::uint64_t t = state_[1] << 17;
  state_[2] ^= state_[0];
  state_[3] ^= state_[1];
  state_[1] ^= state_[2];
  state_[0] ^= state_[3];
  state_[2] ^= t;
  state_[3] = rotl(state_[3], 45);
  return result;
}

std::uint64_t Rng::next_below(std::uint64_t bound) noexcept {
  // Lemire-style rejection to remove modulo bias.
  const std::uint64_t threshold = (0 - bound) % bound;
  for (;;) {
    const std::uint64_t r = next();
    if (r >= threshold) return r % bound;
  }
}

double Rng::uniform() noexcept {
  return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

double Rng::uniform(double lo, double hi) noexcept {
  return lo + (hi - lo) * uniform();
}

double Rng::exponential(double mean) noexcept {
  double u = uniform();
  if (u <= 0.0) u = 0x1.0p-53;
  return -mean * std::log(u);
}

bool Rng::chance(double probability) noexcept {
  if (probability <= 0.0) return false;
  if (probability >= 1.0) return true;
  return uniform() < probability;
}

Rng Rng::fork() noexcept { return Rng(next()); }

std::size_t Rng::zipf(std::size_t n, double s) noexcept {
  if (n == 0) return 0;
  if (s <= 0.0) return static_cast<std::size_t>(next_below(n));
  // Inverse-CDF on the continuous approximation of the zeta distribution:
  // adequate for workload skew, where exactness of the tail is immaterial.
  const double u = uniform();
  double x = 1.0;
  if (std::abs(1.0 - s) < 1e-9) {
    x = std::exp(u * std::log(static_cast<double>(n)));
  } else {
    const double hn = std::pow(static_cast<double>(n), 1.0 - s);
    x = std::pow(u * (hn - 1.0) + 1.0, 1.0 / (1.0 - s));
  }
  auto rank = static_cast<std::size_t>(x) - 1;
  if (rank >= n) rank = n - 1;
  return rank;
}

}  // namespace agentloc::util
