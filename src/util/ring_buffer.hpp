#pragma once

#include <cassert>
#include <cstddef>
#include <utility>
#include <vector>

namespace agentloc::util {

/// Power-of-two growable FIFO ring — the agent-inbox replacement for
/// `std::deque`.
///
/// libstdc++'s deque allocates a ~512-byte chunk the first time anything is
/// pushed and frees it again when the queue drains, so every burst of
/// messages into an idle inbox paid a malloc/free pair. The ring keeps one
/// contiguous power-of-two slab that only ever grows; emptied buffers retain
/// their capacity, which lets `AgentSystem` recycle them through a free list
/// across agent lifetimes instead of re-warming the allocator.
template <typename T>
class RingBuffer {
 public:
  RingBuffer() = default;

  RingBuffer(RingBuffer&& other) noexcept
      : slots_(std::move(other.slots_)),
        head_(other.head_),
        size_(other.size_) {
    other.slots_.clear();
    other.head_ = 0;
    other.size_ = 0;
  }

  RingBuffer& operator=(RingBuffer&& other) noexcept {
    if (this != &other) {
      slots_ = std::move(other.slots_);
      head_ = other.head_;
      size_ = other.size_;
      other.slots_.clear();
      other.head_ = 0;
      other.size_ = 0;
    }
    return *this;
  }

  RingBuffer(const RingBuffer&) = delete;
  RingBuffer& operator=(const RingBuffer&) = delete;

  bool empty() const noexcept { return size_ == 0; }
  std::size_t size() const noexcept { return size_; }
  std::size_t capacity() const noexcept { return slots_.size(); }

  void push_back(T value) {
    if (size_ == slots_.size()) grow();
    slots_[(head_ + size_) & mask()] = std::move(value);
    ++size_;
  }

  T& front() noexcept {
    assert(size_ > 0 && "front() on empty RingBuffer");
    return slots_[head_];
  }

  T pop_front() {
    assert(size_ > 0 && "pop_front() on empty RingBuffer");
    T out = std::move(slots_[head_]);
    head_ = (head_ + 1) & mask();
    --size_;
    return out;
  }

  /// Drop all queued values; capacity is retained for reuse.
  void clear() noexcept {
    for (std::size_t i = 0; i < size_; ++i) {
      slots_[(head_ + i) & mask()] = T{};
    }
    head_ = 0;
    size_ = 0;
  }

 private:
  /// First slab is deliberately tiny: most agent inboxes hold one or two
  /// messages at a time, and at million-agent populations the initial inbox
  /// slab is the dominant per-agent memory term (8 slots of ~136-byte
  /// `Message` cost ~1.1 KiB per agent; 2 slots cost a quarter of that).
  /// Busy inboxes still double their way up and keep the larger slab.
  static constexpr std::size_t kMinCapacity = 2;

  std::size_t mask() const noexcept { return slots_.size() - 1; }

  void grow() {
    const std::size_t next =
        slots_.empty() ? kMinCapacity : slots_.size() * 2;
    std::vector<T> grown(next);
    for (std::size_t i = 0; i < size_; ++i) {
      grown[i] = std::move(slots_[(head_ + i) & mask()]);
    }
    slots_ = std::move(grown);
    head_ = 0;
  }

  std::vector<T> slots_;
  std::size_t head_ = 0;
  std::size_t size_ = 0;
};

}  // namespace agentloc::util
