#include "util/parallel_for.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

namespace agentloc::util {

std::size_t default_threads() noexcept {
  const unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : static_cast<std::size_t>(n);
}

void parallel_for(std::size_t count, std::size_t threads,
                  const std::function<void(std::size_t)>& body) {
  // First exception wins; remaining indices still run — on both paths — so
  // results for other indices stay usable by the caller's catch.
  std::exception_ptr first_error;
  std::mutex error_mutex;
  const auto run = [&](std::size_t i) {
    try {
      body(i);
    } catch (...) {
      std::lock_guard lock(error_mutex);
      if (!first_error) first_error = std::current_exception();
    }
  };

  if (threads <= 1 || count <= 1) {
    for (std::size_t i = 0; i < count; ++i) run(i);
  } else {
    std::atomic<std::size_t> next{0};
    const std::size_t spawn = std::min(threads, count);
    std::vector<std::jthread> workers;
    workers.reserve(spawn);
    for (std::size_t t = 0; t < spawn; ++t) {
      workers.emplace_back([&] {
        for (std::size_t i = next++; i < count; i = next++) run(i);
      });
    }
  }  // the workers join here, also when starting one of them threw
  if (first_error) std::rethrow_exception(first_error);
}

}  // namespace agentloc::util
