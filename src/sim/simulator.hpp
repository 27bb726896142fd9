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
/// enough for the inline buffer never touch the heap at all). The pending
/// set is a hierarchical timing wheel threaded through those records
/// (DESIGN.md §8): 1 ms buckets over the current 4.096 s window, 4.096 s
/// buckets over the next ~70 minutes and one overflow list beyond, all
/// intrusive lists, so filing and cancelling a far event is O(1) however
/// many are pending. Only the earliest bucket is ordered exactly: it becomes
/// the near tier, a list in `(when, seq)` order (the whole bucket when it is
/// already sorted, as a same-instant burst is; else its earliest instant)
/// plus a small binary heap for the rest and for the events scheduled into
/// the bucket meanwhile.
/// Run many simulators on different threads for parallel sweeps; a single
/// instance is strictly single-threaded.
class Simulator {
 public:
  /// Handler storage is small-buffer-optimized: captures up to 24 bytes are
  /// stored inline in the event record; larger ones fall back to one heap
  /// allocation. 24 is the largest capture a fault-free run schedules: a
  /// TAgent's `this` plus a member pointer, and the platform's arrival
  /// event (DESIGN.md §8).
  using Handler = util::InlineFunction<void(), 24>;

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

  /// Capacity hint: pre-size the event pool for `events` concurrent pending
  /// events so a steady-state run never regrows it mid-flight. The wheel
  /// needs no sizing (its lists run through the pool), and the near tier's
  /// heap grows only together with the pool.
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
    return slot < records_.size() && records_[slot].prev != kFree &&
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
  // Wheel geometry. Order is exact whatever these are; they only decide
  // which events share a bucket and when the overflow list is rescanned.
  static constexpr std::int64_t kTickNanos = 1'000'000;  // fine bucket: 1 ms
  static constexpr std::uint32_t kFineBuckets = 4096;    // window: 4.096 s
  static constexpr std::int64_t kWindowNanos = kTickNanos * kFineBuckets;
  static constexpr std::uint32_t kCoarseBuckets = 1024;  // horizon: ~70 min
  static_assert(kFineBuckets % 64 == 0 && kFineBuckets <= 64 * 64 &&
                    kCoarseBuckets % 64 == 0,
                "the occupancy bitmaps hold whole 64-bucket words");

  // List ids: fine buckets, then coarse buckets, then the overflow list and
  // the near tier's sorted run.
  static constexpr std::uint32_t kOverflowList = kFineBuckets + kCoarseBuckets;
  static constexpr std::uint32_t kRunList = kOverflowList + 1;
  static constexpr std::uint32_t kLists = kRunList + 1;

  static constexpr std::uint32_t kNil = UINT32_MAX;  // end of a list
  // `Record::prev` sentinels for records that are on no list.
  static constexpr std::uint32_t kInNear = UINT32_MAX - 1;
  static constexpr std::uint32_t kFree = UINT32_MAX - 2;

  /// One pooled event, one 64-byte cache line: the pool is the only
  /// per-event storage of every tier. A slot's generation is bumped whenever
  /// the event it held is cancelled or executed, so stale `EventId`s and
  /// stale near-heap entries referring to an earlier occupant are detected
  /// in O(1).
  struct alignas(64) Record {
    Handler handler;
    SimTime when;
    std::uint64_t seq = 0;
    std::uint32_t generation = 1;
    /// Free-list link while free, else the next record of its list.
    std::uint32_t next = kNil;
    /// The previous record of its list (kNil at the head), kInNear, or
    /// kFree.
    std::uint32_t prev = kFree;
    /// The list holding the record while `prev` is a link or kNil.
    std::uint32_t list = 0;
  };
  static_assert(sizeof(Record) == 64,
                "one cache line per pending event; sim-scale keeps ~1M live");

  struct List {
    std::uint32_t head = kNil;
    std::uint32_t tail = kNil;
  };

  /// Near-tier heap entries are plain 24-byte values ordered min-first by
  /// (when, seq): later-scheduled same-time events run after earlier ones.
  /// Each carries its record's generation, so a cancelled entry is left in
  /// place and dropped lazily.
  struct NearEntry {
    SimTime when;
    std::uint64_t seq;
    std::uint32_t slot;
    std::uint32_t generation;
  };
  struct EntryAfter {
    bool operator()(const NearEntry& a, const NearEntry& b) const noexcept {
      if (a.when != b.when) return a.when > b.when;
      return a.seq > b.seq;
    }
  };

  static EventId make_id(std::uint32_t slot, std::uint32_t generation) {
    return (static_cast<EventId>(generation) << 32) | slot;
  }

  /// Append a record to the pool and make it the free list's head.
  void grow_pool();

  /// Return the slot to the free list and invalidate outstanding ids.
  void release_slot(std::uint32_t slot, Record& record) noexcept;

  /// When cancelled heap entries outnumber live ones, sweep them out and
  /// re-heapify. Amortized O(1) per cancel; keeps the heap depth set by the
  /// *live* near events even when cancelled timeouts vastly outnumber them.
  void maybe_compact();
  void compact();

  void link(std::uint32_t slot, std::uint32_t list);
  void unlink(std::uint32_t slot) noexcept;
  /// File a record whose time lies beyond the near tier into the wheel.
  void file(std::uint32_t slot);

  /// Make the earliest wheel bucket the near tier, unless it starts after
  /// `deadline`. False when no event is due by then.
  bool collect(SimTime deadline);
  /// Move the fine level to the next occupied window at or before
  /// `deadline`: cascade its coarse bucket and refile overflow events that
  /// entered the horizon.
  bool advance_window(SimTime deadline);

  /// Run the earliest event if it is due by `deadline`.
  bool execute_next(SimTime deadline);

  SimTime now_ = SimTime::zero();
  std::uint64_t next_seq_ = 1;
  std::uint64_t executed_ = 0;
  std::size_t live_ = 0;
  bool stop_requested_ = false;
  std::vector<Record> records_;
  std::uint32_t free_head_ = kNil;

  // Near tier: every pending event at or before `near_last_`. A record is
  // either on the sorted run (kRunList) or behind an entry of `near_`.
  SimTime near_last_ = SimTime::nanos(-1);
  std::vector<NearEntry> near_;
  // Exact count of heap entries orphaned by cancel() (execution pops its
  // entry eagerly, so cancellation is the only source of stale entries).
  std::size_t stale_in_near_ = 0;

  // Wheel: the fine level spans window `window_`, the coarse level the
  // kCoarseBuckets windows after it, the overflow list everything later.
  std::int64_t window_ = 0;
  std::vector<List> lists_ = std::vector<List>(kLists);
  // One bit per fine and coarse bucket, set while its list is non-empty;
  // `fine_words_` has bit w set while fine word w is non-zero.
  std::uint64_t occupied_[(kFineBuckets + kCoarseBuckets) / 64] = {};
  std::uint64_t fine_words_ = 0;
  SimTime overflow_min_ = SimTime::infinity();  // a lower bound
};

}  // namespace agentloc::sim
