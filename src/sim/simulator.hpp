#pragma once

#include <cstdint>
#include <vector>

#include "sim/time.hpp"
#include "util/inline_function.hpp"

namespace agentloc::sim {

/// Handle to a scheduled event; lets the owner cancel it.
///
/// Packs a slab slot index (low 32 bits) and that slot's generation at
/// scheduling time (high 32 bits). Generations start at 1, so a valid id is
/// never 0 and `kInvalidEvent` can stay the all-zero sentinel.
using EventId = std::uint64_t;
inline constexpr EventId kInvalidEvent = 0;

/// Single-threaded discrete-event simulator.
///
/// Every component of the simulated system — the network, agent platforms,
/// workload generators — schedules closures here. Events at the same
/// timestamp run in scheduling order (a monotone sequence number breaks
/// ties), which is what makes whole experiments deterministic for a given
/// seed.
///
/// Internally events live in a slab of pooled records: scheduling reuses a
/// free slot (no per-event allocation once the pool is warm — handlers small
/// enough for the inline buffer never touch the heap at all), and `cancel`
/// is an O(1) generation bump that invalidates the heap entry lazily. Run
/// many simulators on different threads for parallel sweeps; a single
/// instance is strictly single-threaded.
class Simulator {
 public:
  /// Handler storage is small-buffer-optimized: captures up to 48 bytes
  /// (e.g. the network's delivery closure) are stored inline in the event
  /// record; larger ones fall back to one heap allocation.
  using Handler = util::InlineFunction<void(), 48>;

  Simulator() = default;
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// Current simulated time.
  SimTime now() const noexcept { return now_; }

  /// Schedule `handler` to run at absolute time `when` (>= now, else it is
  /// clamped to now: events never run in the past).
  EventId schedule_at(SimTime when, Handler handler);

  /// Schedule `handler` to run `delay` from now.
  EventId schedule_after(SimTime delay, Handler handler);

  /// Cancel a pending event, destroying its handler (and therefore releasing
  /// any captured resources) immediately. Returns false when the event
  /// already ran, was cancelled before, or never existed.
  bool cancel(EventId id);

  /// Run until the queue drains or `deadline` passes. Events scheduled
  /// exactly at the deadline still run. Returns the number of events
  /// executed.
  std::size_t run_until(SimTime deadline);

  /// Run until the queue drains.
  std::size_t run() { return run_until(SimTime::infinity()); }

  /// Execute exactly one event if any is pending. Returns whether one ran.
  bool step();

  /// Ask `run_until`/`run` to return after the current event completes.
  void request_stop() noexcept { stop_requested_ = true; }

  /// Capacity hint: pre-size the event pool and heap for `events` concurrent
  /// pending events so a steady-state run never regrows them mid-flight.
  void reserve(std::size_t events);

  bool empty() const noexcept { return live_ == 0; }
  std::size_t pending() const noexcept { return live_; }
  std::uint64_t executed() const noexcept { return executed_; }

  /// True while `id` is scheduled and has neither run nor been cancelled
  /// (execution releases the slot before invoking the handler, so an event
  /// is no longer pending while its own handler runs).
  bool pending(EventId id) const noexcept {
    const auto slot = static_cast<std::uint32_t>(id);
    const auto generation = static_cast<std::uint32_t>(id >> 32);
    return slot < records_.size() && records_[slot].armed &&
           records_[slot].generation == generation;
  }

  /// Monotone stamp that advances exactly when an event is scheduled.
  /// Callers use it to prove "nothing was scheduled since": the agent
  /// platform coalesces same-instant deliveries only when the stamp is
  /// unchanged, which keeps merged events order-identical to unmerged ones.
  std::uint64_t schedule_stamp() const noexcept { return next_seq_; }

  /// High-water mark of the event pool (diagnostics; pairs with `reserve`).
  std::size_t pool_size() const noexcept { return records_.size(); }

 private:
  static constexpr std::uint32_t kNoFreeSlot = UINT32_MAX;

  /// One pooled event. A slot's generation is bumped whenever the event it
  /// held is cancelled or executed, so stale `EventId`s and stale heap
  /// entries referring to an earlier occupant are detected in O(1).
  struct Record {
    Handler handler;
    std::uint32_t generation = 1;
    std::uint32_t next_free = kNoFreeSlot;
    bool armed = false;
  };

  /// Heap entries are plain 24-byte values ordered min-first by
  /// (when, seq): later-scheduled same-time events run after earlier ones.
  struct HeapEntry {
    SimTime when;
    std::uint64_t seq;
    std::uint32_t slot;
    std::uint32_t generation;
  };
  struct EntryAfter {
    bool operator()(const HeapEntry& a, const HeapEntry& b) const noexcept {
      if (a.when != b.when) return a.when > b.when;
      return a.seq > b.seq;
    }
  };

  static EventId make_id(std::uint32_t slot, std::uint32_t generation) {
    return (static_cast<EventId>(generation) << 32) | slot;
  }

  /// Return the slot to the free list and invalidate outstanding ids.
  void release_slot(std::uint32_t slot, Record& record) noexcept;

  /// Pop heap entries whose slot was cancelled/reused since they were
  /// pushed, leaving a live event (or an empty heap) on top.
  void drop_stale_top();

  /// When cancelled entries outnumber live ones, sweep them out and
  /// re-heapify. Amortized O(1) per cancel; keeps the heap depth set by the
  /// *live* event count even when cancelled timeouts vastly outnumber it.
  void maybe_compact();

  void pop_top();

  /// Pop and run the heap top; the caller guarantees it is live.
  void execute_top();

  SimTime now_ = SimTime::zero();
  std::uint64_t next_seq_ = 1;
  std::uint64_t executed_ = 0;
  std::size_t live_ = 0;
  bool stop_requested_ = false;
  std::vector<Record> records_;
  std::uint32_t free_head_ = kNoFreeSlot;
  std::vector<HeapEntry> heap_;
  // Exact count of heap entries orphaned by cancel() (execution pops its
  // entry eagerly, so cancellation is the only source of stale entries).
  std::size_t stale_in_heap_ = 0;
};

}  // namespace agentloc::sim
