#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "net/locate_service.hpp"
#include "net/socket_transport.hpp"

namespace agentloc::net {

/// Sharded `agentlocd`: N worker threads, each owning one complete serving
/// stack — its own `SocketTransport` (epoll loop, buffer pool, listen
/// socket) plus a `LocateService` that serves the leaves the map gives it.
/// Nothing mutable is shared between workers: the only cross-thread state
/// is the immutable `PartitionMap` built before the threads spawn and the
/// stop flag (DESIGN.md §17).
///
/// Sharding contract:
///  - worker k listens on `worker_address(base, k)` — worker 0 on the base
///    address itself, worker k>0 on `path + ".w<k>"` (unix) / `port + k`
///    (tcp), so no two workers share an address. A base whose derived
///    addresses cannot be bound (a port past 65535, a path past
///    `sun_path`) fails `start` before anything binds, and an address
///    another listener holds fails it at bind: two servers never split one
///    address's clients between two directories.
///  - the advertised map assigns leaf → worker round-robin
///    (`leaf % workers`), and every worker answers kPartitionMap with the
///    same map.
///  - each leaf has one owner: a worker applies and answers ops only for
///    the leaves it owns, and refuses the rest with kNotResponsible. So a
///    leaf's bindings are only ever written through its owner's thread,
///    and held in its owner's directory alone, whichever connection a
///    client uses.
class LocateServer {
 public:
  struct Config {
    std::size_t workers = 1;     ///< clamped to [1, partitions]
    std::size_t partitions = 8;  ///< hash-tree leaves per directory
  };

  /// Post-join snapshot of one worker's serving stack.
  struct WorkerStats {
    std::string address;
    SocketTransport::Stats transport;
    LocateService::Counters counters;
    std::size_t bindings = 0;
  };

  explicit LocateServer(Config config);
  ~LocateServer();  ///< stop() + join
  LocateServer(const LocateServer&) = delete;
  LocateServer& operator=(const LocateServer&) = delete;

  /// Listen address of worker `k` for a given base address: k == 0 is the
  /// base itself; unix gets ".w<k>" appended to the path, tcp gets port+k.
  /// False + `error` when that address cannot be bound: a tcp port past
  /// 65535, or a unix path longer than `sun_path` holds.
  static bool worker_address(const SocketAddress& base, std::size_t k,
                             SocketAddress& out, std::string* error);

  /// Derive every worker's address (an unbindable one fails before any
  /// listener exists), bind every worker's listener (so address conflicts
  /// fail fast, before any thread exists), then spawn the worker threads.
  /// False + `error` naming the worker on any failure (already-bound
  /// listeners are closed).
  bool start(const SocketAddress& base, std::string* error);

  /// Signal every worker to finish its current turn and join them. Safe to
  /// call twice; the destructor calls it.
  void stop();

  std::size_t worker_count() const noexcept { return config_.workers; }

  /// Per-worker detail; meaningful after stop() (workers write their
  /// snapshot as they exit).
  const std::vector<WorkerStats>& stats() const noexcept { return stats_; }

 private:
  struct Worker;

  void run_worker(std::size_t index);

  Config config_;
  PartitionMap map_;
  std::vector<std::unique_ptr<Worker>> workers_;
  std::vector<std::thread> threads_;
  std::vector<WorkerStats> stats_;
  std::atomic<bool> stop_{false};
};

}  // namespace agentloc::net
