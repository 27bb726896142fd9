#pragma once

#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <utility>
#include <vector>

#include "util/rng.hpp"  // mix64

namespace agentloc::util {

/// Open-addressing hash map for integer keys with a reserved "empty" key.
///
/// `std::unordered_map` heap-allocates a node per entry, which makes the hash
/// tree's leaf index the dominant cost of copying or deserializing a tree:
/// every clone pays one malloc/free pair per leaf just for index bookkeeping.
/// This map keeps all slots in one contiguous array (linear probing,
/// power-of-two capacity, backward-shift deletion), so inserts and clears
/// never touch the allocator once capacity is reached and finds probe
/// adjacent cache lines instead of chasing list nodes.
///
/// `kEmptyKey` marks vacant slots and therefore can never be inserted;
/// callers pick a value outside the key domain (the hash tree uses
/// `kNoIAgent`, which no leaf may carry).
template <typename Key, typename Value, Key kEmptyKey>
class FlatMap {
 public:
  FlatMap() = default;

  std::size_t size() const noexcept { return size_; }
  bool empty() const noexcept { return size_ == 0; }

  /// Allocated bytes (zero until the first insert): every slot, padding
  /// included, so a `{uint64_t, uint32_t}` slot counts 16 bytes, not 12.
  std::size_t resident_bytes() const noexcept {
    return slots_.size() * sizeof(Slot);
  }

  /// Grow (never shrink) so `count` entries fit without rehashing.
  void reserve(std::size_t count) {
    std::size_t want = kMinCapacity;
    while (want * 3 < count * 4 + 4) want <<= 1;  // keep load below 3/4
    if (want > slots_.size()) rehash(want);
  }

  void clear() noexcept {
    for (Slot& slot : slots_) {
      slot.key = kEmptyKey;
      slot.value = Value{};
    }
    size_ = 0;
  }

  /// Visit every (key, value) pair, in unspecified (slot) order. The
  /// callback must not insert into or erase from the map — collect keys
  /// first for erase-while-iterating patterns.
  template <typename Fn>
  void for_each(Fn&& fn) {
    for (Slot& slot : slots_) {
      if (slot.key != kEmptyKey) fn(slot.key, slot.value);
    }
  }

  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (const Slot& slot : slots_) {
      if (slot.key != kEmptyKey) fn(slot.key, slot.value);
    }
  }

  /// Remove every entry matching `pred(key, value)` in one pass, handing
  /// each removed pair to `sink(key, std::move(value))`. Survivors are
  /// recompacted by one in-place rehash — O(capacity) total however the
  /// matches are distributed, instead of one backward-shift erase per match.
  /// Returns the number of entries removed.
  template <typename Pred, typename Sink>
  std::size_t extract_if(Pred&& pred, Sink&& sink) {
    std::size_t removed = 0;
    for (Slot& slot : slots_) {
      if (slot.key == kEmptyKey || !pred(slot.key, slot.value)) continue;
      sink(slot.key, std::move(slot.value));
      slot.key = kEmptyKey;
      slot.value = Value{};
      ++removed;
    }
    if (removed > 0) {
      size_ -= removed;
      // The holes break linear-probe chains; one rehash restores every
      // survivor's reachability from its home slot.
      rehash(slots_.size());
    }
    return removed;
  }

  Value* find(Key key) noexcept {
    const std::size_t idx = locate(key);
    return idx != kNotFound ? &slots_[idx].value : nullptr;
  }

  const Value* find(Key key) const noexcept {
    const std::size_t idx = locate(key);
    return idx != kNotFound ? &slots_[idx].value : nullptr;
  }

  bool contains(Key key) const noexcept { return locate(key) != kNotFound; }

  const Value& at(Key key) const {
    const std::size_t idx = locate(key);
    if (idx == kNotFound) throw std::out_of_range("FlatMap::at: missing key");
    return slots_[idx].value;
  }

  /// Insert `value` under `key` if absent; returns false (and leaves the
  /// existing mapping untouched) if the key is already present. Matches
  /// `unordered_map::emplace` semantics for this use.
  bool emplace(Key key, Value value) {
    maybe_grow();
    std::size_t idx = slot_of(key);
    while (slots_[idx].key != kEmptyKey) {
      if (slots_[idx].key == key) return false;
      idx = (idx + 1) & mask();
    }
    slots_[idx].key = key;
    slots_[idx].value = std::move(value);
    ++size_;
    return true;
  }

  /// Insert-or-overwrite access, as in `map[key] = value`.
  Value& operator[](Key key) {
    maybe_grow();
    std::size_t idx = slot_of(key);
    while (slots_[idx].key != kEmptyKey) {
      if (slots_[idx].key == key) return slots_[idx].value;
      idx = (idx + 1) & mask();
    }
    slots_[idx].key = key;
    slots_[idx].value = Value{};
    ++size_;
    return slots_[idx].value;
  }

  /// Remove `key`; returns whether it was present. Linear probing requires
  /// backward-shift deletion: entries displaced past the hole are slid back
  /// so every remaining entry stays reachable from its home slot.
  bool erase(Key key) {
    std::size_t hole = locate(key);
    if (hole == kNotFound) return false;
    std::size_t cur = (hole + 1) & mask();
    while (slots_[cur].key != kEmptyKey) {
      const std::size_t home = slot_of(slots_[cur].key);
      if (((cur - home) & mask()) >= ((cur - hole) & mask())) {
        slots_[hole] = std::move(slots_[cur]);
        hole = cur;
      }
      cur = (cur + 1) & mask();
    }
    slots_[hole].key = kEmptyKey;
    slots_[hole].value = Value{};  // release resources of move-only values
    --size_;
    return true;
  }

 private:
  struct Slot {
    Key key = kEmptyKey;
    Value value{};
  };

  static constexpr std::size_t kMinCapacity = 8;
  static constexpr std::size_t kNotFound = static_cast<std::size_t>(-1);

  std::size_t mask() const noexcept { return slots_.size() - 1; }

  std::size_t slot_of(Key key) const noexcept {
    return static_cast<std::size_t>(mix64(static_cast<std::uint64_t>(key))) &
           mask();
  }

  std::size_t locate(Key key) const noexcept {
    if (slots_.empty()) return kNotFound;
    std::size_t idx = slot_of(key);
    while (slots_[idx].key != kEmptyKey) {
      if (slots_[idx].key == key) return idx;
      idx = (idx + 1) & mask();
    }
    return kNotFound;
  }

  void maybe_grow() {
    if (slots_.empty()) {
      rehash(kMinCapacity);
    } else if ((size_ + 1) * 4 > slots_.size() * 3) {
      rehash(slots_.size() * 2);
    }
  }

  void rehash(std::size_t capacity) {
    std::vector<Slot> old = std::move(slots_);
    slots_.clear();
    slots_.resize(capacity);  // resize, not assign: Value may be move-only
    for (Slot& slot : old) {
      if (slot.key == kEmptyKey) continue;
      std::size_t idx = slot_of(slot.key);
      while (slots_[idx].key != kEmptyKey) idx = (idx + 1) & mask();
      slots_[idx] = std::move(slot);
    }
  }

  std::vector<Slot> slots_;
  std::size_t size_ = 0;
};

}  // namespace agentloc::util
