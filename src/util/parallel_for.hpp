#pragma once

#include <cstddef>
#include <functional>

namespace agentloc::util {

/// `std::thread::hardware_concurrency()`, or 1 when that reports 0.
std::size_t default_threads() noexcept;

/// Run `body(0) … body(count-1)` on up to `threads` threads and return once
/// all calls finished.
///
/// This is replication-level parallelism: the simulator itself stays
/// strictly single-threaded, and each index of an experiment sweep runs an
/// independent replication (its own `Simulator`/`Network`/`AgentSystem`).
/// With `threads <= 1` (or fewer than two items) the calls run inline on the
/// caller's thread, in index order; otherwise `min(threads, count)` threads
/// claim indices from a shared counter. Both paths execute the exact same
/// bodies, just on different threads. The first exception thrown by any body
/// is rethrown on the caller after all indices complete.
void parallel_for(std::size_t count, std::size_t threads,
                  const std::function<void(std::size_t)>& body);

}  // namespace agentloc::util
