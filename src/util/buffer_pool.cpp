#include "util/buffer_pool.hpp"

#include <utility>

namespace agentloc::util {

std::vector<std::uint8_t> BufferPool::acquire(std::size_t min_capacity) {
  ++stats_.acquires;
  if (!pool_.empty()) {
    std::vector<std::uint8_t> buffer = std::move(pool_.back());
    pool_.pop_back();
    retained_bytes_ -= buffer.capacity();
    ++stats_.reuses;
    if (buffer.capacity() < min_capacity) buffer.reserve(min_capacity);
    return buffer;
  }
  std::vector<std::uint8_t> buffer;
  if (min_capacity > 0) buffer.reserve(min_capacity);
  return buffer;
}

void BufferPool::release(std::vector<std::uint8_t>&& buffer) {
  ++stats_.releases;
  buffer.clear();
  if (buffer.capacity() == 0 || pool_.size() >= kMaxBuffers ||
      retained_bytes_ + buffer.capacity() > kMaxRetainedBytes) {
    ++stats_.discards;
    return;  // let the vector free its storage
  }
  retained_bytes_ += buffer.capacity();
  pool_.push_back(std::move(buffer));
}

}  // namespace agentloc::util
