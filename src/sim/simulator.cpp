#include "sim/simulator.hpp"

#include <algorithm>
#include <utility>

namespace agentloc::sim {

EventId Simulator::schedule_at(SimTime when, Handler handler) {
  if (when < now_) when = now_;

  std::uint32_t slot;
  if (free_head_ != kNoFreeSlot) {
    slot = free_head_;
    free_head_ = records_[slot].next_free;
  } else {
    slot = static_cast<std::uint32_t>(records_.size());
    records_.emplace_back();
  }
  Record& record = records_[slot];
  record.handler = std::move(handler);
  record.armed = true;

  heap_.push_back(HeapEntry{when, next_seq_++, slot, record.generation});
  std::push_heap(heap_.begin(), heap_.end(), EntryAfter{});
  ++live_;
  return make_id(slot, record.generation);
}

EventId Simulator::schedule_after(SimTime delay, Handler handler) {
  return schedule_at(now_ + delay, std::move(handler));
}

bool Simulator::cancel(EventId id) {
  const auto slot = static_cast<std::uint32_t>(id);
  const auto generation = static_cast<std::uint32_t>(id >> 32);
  if (slot >= records_.size()) return false;
  Record& record = records_[slot];
  if (!record.armed || record.generation != generation) return false;
  record.handler.reset();  // release captured resources immediately
  release_slot(slot, record);
  --live_;
  ++stale_in_heap_;
  maybe_compact();
  return true;
}

void Simulator::maybe_compact() {
  if (heap_.size() < 64 || stale_in_heap_ * 2 <= heap_.size()) return;
  const auto stale = [this](const HeapEntry& entry) {
    const Record& record = records_[entry.slot];
    return !record.armed || record.generation != entry.generation;
  };
  heap_.erase(std::remove_if(heap_.begin(), heap_.end(), stale), heap_.end());
  std::make_heap(heap_.begin(), heap_.end(), EntryAfter{});
  stale_in_heap_ = 0;
}

void Simulator::release_slot(std::uint32_t slot, Record& record) noexcept {
  record.armed = false;
  // Bumping the generation orphans the heap entry (lazily discarded) and
  // every EventId handed out for this occupancy. Skip 0 on wrap so a live
  // id can never equal kInvalidEvent.
  if (++record.generation == 0) record.generation = 1;
  record.next_free = free_head_;
  free_head_ = slot;
}

void Simulator::drop_stale_top() {
  while (!heap_.empty()) {
    const HeapEntry& top = heap_.front();
    const Record& record = records_[top.slot];
    if (record.armed && record.generation == top.generation) return;
    pop_top();
    --stale_in_heap_;
  }
}

void Simulator::pop_top() {
  std::pop_heap(heap_.begin(), heap_.end(), EntryAfter{});
  heap_.pop_back();
}

bool Simulator::step() {
  drop_stale_top();
  if (heap_.empty()) return false;
  execute_top();
  return true;
}

void Simulator::execute_top() {
  const HeapEntry top = heap_.front();
  pop_top();

  Record& record = records_[top.slot];
  // Move the handler out before running it: the handler may schedule new
  // events, which can reuse this very slot or grow the pool.
  Handler handler = std::move(record.handler);
  release_slot(top.slot, record);
  --live_;

  now_ = top.when;
  ++executed_;
  handler();
}

std::size_t Simulator::run_until(SimTime deadline) {
  std::size_t count = 0;
  stop_requested_ = false;
  for (;;) {
    // Skip cancelled entries without advancing time.
    drop_stale_top();
    if (heap_.empty() || heap_.front().when > deadline || stop_requested_) {
      // Advance the clock to the deadline so back-to-back run_until calls
      // observe monotone time even across idle stretches.
      if (deadline != SimTime::infinity() && deadline > now_ &&
          !stop_requested_) {
        now_ = deadline;
      }
      return count;
    }
    execute_top();  // top is live: drop_stale_top just ran
    ++count;
  }
}

void Simulator::reserve(std::size_t events) {
  records_.reserve(events);
  heap_.reserve(events);
}

}  // namespace agentloc::sim
