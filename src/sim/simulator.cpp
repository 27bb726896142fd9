#include "sim/simulator.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <utility>

namespace agentloc::sim {

EventId Simulator::schedule_at(SimTime when, Handler handler) {
  if (when < now_) when = now_;

  if (free_head_ == kNil) grow_pool();
  const std::uint32_t slot = free_head_;
  Record& record = records_[slot];
  free_head_ = record.next;
  record.handler = std::move(handler);
  record.when = when;
  record.seq = next_seq_++;
  if (when <= near_last_) {
    // Into the near tier's heap; compact rather than grow while it holds
    // cancelled entries.
    if (near_.size() == near_.capacity() && stale_in_near_ > 0) compact();
    near_.push_back(NearEntry{when, record.seq, slot, record.generation});
    std::push_heap(near_.begin(), near_.end(), EntryAfter{});
    record.prev = kInNear;
  } else {
    file(slot);
  }
  ++live_;
  return make_id(slot, record.generation);
}

EventId Simulator::schedule_after(SimTime delay, Handler handler) {
  return schedule_at(now_ + delay, std::move(handler));
}

void Simulator::grow_pool() {
  free_head_ = static_cast<std::uint32_t>(records_.size());
  records_.emplace_back();
  // The near heap never holds more live entries than the pool has records,
  // and it is compacted before it would grow with stale ones, so matching
  // capacities keep it from reallocating once the pool is warm.
  if (near_.capacity() < records_.capacity()) {
    near_.reserve(records_.capacity());
  }
}

void Simulator::release_slot(std::uint32_t slot, Record& record) noexcept {
  record.prev = kFree;
  // Bumping the generation orphans a near-heap entry (lazily discarded) and
  // every EventId handed out for this occupancy. Skip 0 on wrap so a live
  // id can never equal kInvalidEvent.
  if (++record.generation == 0) record.generation = 1;
  record.next = free_head_;
  free_head_ = slot;
}

bool Simulator::cancel(EventId id) {
  const auto slot = static_cast<std::uint32_t>(id);
  const auto generation = static_cast<std::uint32_t>(id >> 32);
  if (slot >= records_.size()) return false;
  Record& record = records_[slot];
  if (record.prev == kFree || record.generation != generation) return false;
  record.handler.reset();  // release captured resources immediately
  const bool in_near = record.prev == kInNear;
  if (!in_near) unlink(slot);
  release_slot(slot, record);
  --live_;
  if (in_near) {
    ++stale_in_near_;
    maybe_compact();
  }
  return true;
}

// --- Near tier --------------------------------------------------------------

void Simulator::maybe_compact() {
  if (near_.size() < 64 || stale_in_near_ * 2 <= near_.size()) return;
  compact();
}

void Simulator::compact() {
  const auto stale = [this](const NearEntry& entry) {
    return records_[entry.slot].generation != entry.generation;
  };
  near_.erase(std::remove_if(near_.begin(), near_.end(), stale), near_.end());
  std::make_heap(near_.begin(), near_.end(), EntryAfter{});
  stale_in_near_ = 0;
}

// --- Wheel ------------------------------------------------------------------

void Simulator::link(std::uint32_t slot, std::uint32_t list) {
  Record& record = records_[slot];
  List& target = lists_[list];
  record.list = list;
  record.next = kNil;
  record.prev = target.tail;
  if (target.tail == kNil) {
    target.head = slot;
    if (list < kOverflowList) {
      occupied_[list / 64] |= std::uint64_t{1} << (list % 64);
      if (list < kFineBuckets) fine_words_ |= std::uint64_t{1} << (list / 64);
    }
  } else {
    records_[target.tail].next = slot;
  }
  target.tail = slot;
}

void Simulator::unlink(std::uint32_t slot) noexcept {
  const Record& record = records_[slot];
  List& source = lists_[record.list];
  if (record.prev == kNil) {
    source.head = record.next;
  } else {
    records_[record.prev].next = record.next;
  }
  if (record.next == kNil) {
    source.tail = record.prev;
  } else {
    records_[record.next].prev = record.prev;
  }
  const std::uint32_t list = record.list;
  if (source.head == kNil && list < kOverflowList) {
    std::uint64_t& word = occupied_[list / 64];
    word &= ~(std::uint64_t{1} << (list % 64));
    if (list < kFineBuckets && word == 0) {
      fine_words_ &= ~(std::uint64_t{1} << (list / 64));
    }
  }
}

void Simulator::file(std::uint32_t slot) {
  const SimTime when = records_[slot].when;
  const std::int64_t tick = when.as_nanos() / kTickNanos;
  const std::int64_t window = tick / kFineBuckets;
  // The near tier covers everything before window_, so window >= window_.
  assert(window >= window_);
  if (window == window_) {
    link(slot, static_cast<std::uint32_t>(tick % kFineBuckets));
  } else if (window - window_ <= kCoarseBuckets) {
    link(slot, kFineBuckets +
                   static_cast<std::uint32_t>(window % kCoarseBuckets));
  } else {
    link(slot, kOverflowList);
    overflow_min_ = std::min(overflow_min_, when);
  }
}

bool Simulator::collect(SimTime deadline) {
  if (live_ == 0) return false;  // nothing anywhere: skip the bitmap scans
  while (fine_words_ == 0) {
    if (!advance_window(deadline)) return false;
  }
  const auto word = static_cast<std::uint32_t>(std::countr_zero(fine_words_));
  const std::uint32_t bucket =
      word * 64 + static_cast<std::uint32_t>(std::countr_zero(occupied_[word]));
  const std::int64_t start =
      window_ * kWindowNanos + static_cast<std::int64_t>(bucket) * kTickNanos;
  if (SimTime::nanos(start) > deadline) return false;
  // Saturate: the last bucket before SimTime::infinity() is cut short.
  near_last_ = SimTime::nanos(
      start + std::min(kTickNanos - 1, INT64_MAX - start));

  // The bucket becomes the near tier. Its list is in filing order, which is
  // (when, seq) order for a same-instant burst; such a list is the run as it
  // stands. Otherwise the run keeps the records at the bucket's earliest
  // instant that come in seq order — the t = 0 burst of a million on_start
  // events stays off the heap even with a few later events filed among it —
  // and every other record goes to the heap.
  List taken = lists_[bucket];
  lists_[bucket] = List{};
  occupied_[word] &= ~(std::uint64_t{1} << (bucket % 64));
  if (occupied_[word] == 0) fine_words_ &= ~(std::uint64_t{1} << word);

  assert(near_.empty() && stale_in_near_ == 0);
  bool sorted = true;
  SimTime earliest = SimTime::infinity();
  const Record* previous = nullptr;
  for (std::uint32_t slot = taken.head; slot != kNil;) {
    Record& record = records_[slot];
    record.list = kRunList;
    if (previous != nullptr &&
        (record.when < previous->when ||
         (record.when == previous->when && record.seq < previous->seq))) {
      sorted = false;
    }
    earliest = std::min(earliest, record.when);
    previous = &record;
    slot = record.next;
  }
  if (!sorted) {
    List run;
    std::uint64_t last_seq = 0;
    for (std::uint32_t slot = taken.head; slot != kNil;) {
      Record& record = records_[slot];
      const std::uint32_t following = record.next;
      if (record.when == earliest && record.seq > last_seq) {
        last_seq = record.seq;
        record.prev = run.tail;
        record.next = kNil;
        if (run.tail == kNil) {
          run.head = slot;
        } else {
          records_[run.tail].next = slot;
        }
        run.tail = slot;
      } else {
        // insert, not push_back: schedule_at's push_back, the hot one, stays
        // the only call of it and is inlined there.
        near_.insert(near_.end(), NearEntry{record.when, record.seq, slot,
                                            record.generation});
        record.prev = kInNear;
      }
      slot = following;
    }
    std::make_heap(near_.begin(), near_.end(), EntryAfter{});
    taken = run;
  }
  lists_[kRunList] = taken;
  return true;
}

bool Simulator::advance_window(SimTime deadline) {
  // The next occupied coarse window: coarse bucket w % kCoarseBuckets holds
  // window w, for w in (window_, window_ + kCoarseBuckets]. Scan its bitmap
  // circularly from window_ + 1, a word at a time.
  constexpr std::uint32_t kCoarseWords = kCoarseBuckets / 64;
  const std::uint64_t* coarse_words = occupied_ + kFineBuckets / 64;
  const auto first = static_cast<std::uint32_t>((window_ + 1) % kCoarseBuckets);
  const std::uint64_t from_first = ~std::uint64_t{0} << (first % 64);
  std::int64_t next = INT64_MAX;
  for (std::uint32_t i = 0; i <= kCoarseWords; ++i) {
    const std::uint32_t word = (first / 64 + i) % kCoarseWords;
    std::uint64_t bits = coarse_words[word];
    if (i == 0) bits &= from_first;            // buckets from `first` on
    if (i == kCoarseWords) bits &= ~from_first;  // wrapped: before `first`
    if (bits != 0) {
      const std::uint32_t bucket =
          word * 64 + static_cast<std::uint32_t>(std::countr_zero(bits));
      next = window_ + 1 +
             (bucket + kCoarseBuckets - first) % kCoarseBuckets;
      break;
    }
  }
  if (lists_[kOverflowList].head != kNil) {
    next = std::min(next, overflow_min_.as_nanos() / kWindowNanos);
  }
  if (next == INT64_MAX || SimTime::nanos(next * kWindowNanos) > deadline) {
    return false;
  }

  window_ = next;
  near_last_ = std::max(near_last_, SimTime::nanos(next * kWindowNanos - 1));

  // Cascade this window's coarse bucket before refiling overflow events:
  // the bucket is reused for window_ + kCoarseBuckets.
  const std::uint32_t coarse =
      kFineBuckets + static_cast<std::uint32_t>(window_ % kCoarseBuckets);
  const List cascaded = lists_[coarse];
  lists_[coarse] = List{};
  occupied_[coarse / 64] &= ~(std::uint64_t{1} << (coarse % 64));
  for (std::uint32_t slot = cascaded.head; slot != kNil;) {
    const std::uint32_t following = records_[slot].next;
    file(slot);
    slot = following;
  }

  if (lists_[kOverflowList].head != kNil &&
      overflow_min_.as_nanos() / kWindowNanos <= window_ + kCoarseBuckets) {
    const std::uint32_t head = lists_[kOverflowList].head;
    overflow_min_ = SimTime::infinity();
    for (std::uint32_t slot = head; slot != kNil;) {
      const std::uint32_t following = records_[slot].next;
      const SimTime when = records_[slot].when;
      if (when.as_nanos() / kWindowNanos <= window_ + kCoarseBuckets) {
        unlink(slot);
        file(slot);
      } else {
        overflow_min_ = std::min(overflow_min_, when);
      }
      slot = following;
    }
  }
  return true;
}

// --- Execution --------------------------------------------------------------

bool Simulator::execute_next(SimTime deadline) {
  // One peek per executed event: the earlier of the run's head and the
  // heap's top (after dropping cancelled entries off it).
  std::uint32_t slot;
  SimTime when;
  for (;;) {
    while (!near_.empty() &&
           records_[near_.front().slot].generation !=
               near_.front().generation) {
      std::pop_heap(near_.begin(), near_.end(), EntryAfter{});
      near_.pop_back();
      --stale_in_near_;
    }
    const std::uint32_t run = lists_[kRunList].head;
    if (!near_.empty()) {
      const NearEntry& top = near_.front();
      if (run == kNil || top.when < records_[run].when ||
          (top.when == records_[run].when && top.seq < records_[run].seq)) {
        if (top.when > deadline) return false;
        slot = top.slot;
        when = top.when;
        std::pop_heap(near_.begin(), near_.end(), EntryAfter{});
        near_.pop_back();
        break;
      }
    }
    if (run != kNil) {
      const Record& head = records_[run];
      if (head.when > deadline) return false;
      slot = run;
      when = head.when;
      lists_[kRunList].head = head.next;
      if (head.next == kNil) {
        lists_[kRunList].tail = kNil;
      } else {
        records_[head.next].prev = kNil;
      }
      break;
    }
    if (!collect(deadline)) return false;
  }

  Record& record = records_[slot];
  // Move the handler out before running it: the handler may schedule new
  // events, which can reuse this very slot or grow the pool.
  Handler handler = std::move(record.handler);
  release_slot(slot, record);
  --live_;

  now_ = when;
  ++executed_;
  handler();
  return true;
}

bool Simulator::step() { return execute_next(SimTime::infinity()); }

std::size_t Simulator::run_until(SimTime deadline) {
  std::size_t count = 0;
  stop_requested_ = false;
  while (!stop_requested_ && execute_next(deadline)) ++count;
  // Advance the clock to the deadline so back-to-back run_until calls
  // observe monotone time even across idle stretches.
  if (!stop_requested_ && deadline != SimTime::infinity() && deadline > now_) {
    now_ = deadline;
  }
  return count;
}

void Simulator::reserve(std::size_t events) {
  records_.reserve(events);
  if (near_.capacity() < records_.capacity()) {
    near_.reserve(records_.capacity());
  }
}

}  // namespace agentloc::sim
