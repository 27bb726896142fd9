#pragma once

#include <cstdint>
#include <vector>

namespace agentloc::util {

/// Recycles byte buffers across frame encodes and socket reads so the wire
/// layer's steady state allocates nothing (the byte-level analogue of the
/// platform's message slot pool, DESIGN.md §10/§17).
///
/// Buffers are plain `std::vector<std::uint8_t>`s handed out *cleared but
/// warm*: a released buffer keeps its heap allocation and comes back with
/// `size() == 0` and its old capacity. The pool is LIFO (the most recently
/// used buffer is the cache-warmest) and bounded both in buffer count and in
/// retained bytes; releases beyond either bound simply free the buffer.
///
/// Single-threaded by design, like every other pool in the codebase: each
/// transport/decoder owns its pool or shares one within a thread.
class BufferPool {
 public:
  struct Config {
    std::size_t max_buffers = 64;
    std::size_t max_retained_bytes = 8u << 20;  // 8 MiB
  };

  struct Stats {
    std::uint64_t acquires = 0;
    std::uint64_t reuses = 0;    ///< acquires served from the pool
    std::uint64_t releases = 0;
    std::uint64_t discards = 0;  ///< releases dropped by the bounds
  };

  BufferPool() = default;
  explicit BufferPool(Config config) noexcept : config_(config) {}

  /// A cleared buffer with at least `min_capacity` reserved. Pops the most
  /// recently released pooled buffer when one exists (growing it if it is
  /// too small); otherwise allocates fresh.
  std::vector<std::uint8_t> acquire(std::size_t min_capacity = 0);

  /// Return a buffer to the pool. The buffer is cleared; its capacity is
  /// retained unless the pool is at either bound.
  void release(std::vector<std::uint8_t>&& buffer);

  std::size_t pooled_count() const noexcept { return pool_.size(); }
  std::size_t retained_bytes() const noexcept { return retained_bytes_; }
  const Stats& stats() const noexcept { return stats_; }
  const Config& config() const noexcept { return config_; }

 private:
  Config config_;
  Stats stats_;
  std::vector<std::vector<std::uint8_t>> pool_;
  std::size_t retained_bytes_ = 0;
};

}  // namespace agentloc::util
