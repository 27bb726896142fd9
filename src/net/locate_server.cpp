#include "net/locate_server.hpp"

#include <utility>

namespace agentloc::net {
namespace {

/// Worker loop tick: how long a worker waits for readiness before it checks
/// the stop flag again, so it bounds how long `stop()` waits.
constexpr int kPollTickMs = 50;

}  // namespace

/// One worker's whole serving stack, heap-pinned so the thread can hold a
/// stable pointer while the vector that owns the workers never reallocates
/// after start(). Everything here is touched only by the owning thread once
/// the thread spawns.
struct LocateServer::Worker {
  SocketAddress address;
  SocketTransport transport;
  LocateService service;

  Worker(const PartitionMap& map, std::uint32_t self)
      : service(transport, map, self) {}
};

bool LocateServer::worker_address(const SocketAddress& base, std::size_t k,
                                  SocketAddress& out, std::string* error) {
  out = base;
  if (k == 0) return true;
  if (base.kind == SocketAddress::Kind::kUnix) {
    // parse() owns the sun_path rule: it refuses what bind would truncate.
    return SocketAddress::parse("unix:" + base.path + ".w" + std::to_string(k),
                                out, error);
  }
  const std::size_t port = base.port + k;
  if (port > 65535) {
    if (error) *error = "tcp port " + std::to_string(port) + " out of range";
    return false;
  }
  out.port = static_cast<std::uint16_t>(port);
  return true;
}

LocateServer::LocateServer(Config config) : config_(config) {
  if (config_.workers == 0) config_.workers = 1;
  if (config_.partitions == 0) config_.partitions = 1;
  // More workers than leaves would leave some workers owning nothing; clamp
  // so the advertised map never names an idle shard.
  if (config_.workers > config_.partitions) {
    config_.workers = config_.partitions;
  }
}

LocateServer::~LocateServer() { stop(); }

bool LocateServer::start(const SocketAddress& base, std::string* error) {
  if (!threads_.empty()) {
    if (error != nullptr) *error = "server already started";
    return false;
  }
  // Refuse a map no client could decode, before building a directory or
  // starting a thread.
  const auto exceeds = [error](const char* what, std::size_t count,
                               std::uint64_t bound) {
    if (count <= bound) return false;
    if (error != nullptr) {
      *error = std::string(what) + " " + std::to_string(count) +
               " exceed the partition map's bound of " +
               std::to_string(bound);
    }
    return true;
  };
  if (exceeds("partitions", config_.partitions, PartitionMap::kMaxPartitions) ||
      exceeds("workers", config_.workers, PartitionMap::kMaxWorkers)) {
    return false;
  }
  // Derive every listen address before binding anything, so a base whose
  // derived ports or paths cannot be bound leaves nothing behind.
  std::vector<SocketAddress> addresses(config_.workers);
  for (std::size_t k = 0; k < config_.workers; ++k) {
    std::string address_error;
    if (!worker_address(base, k, addresses[k], &address_error)) {
      if (error != nullptr) {
        *error = "worker " + std::to_string(k) + ": " + address_error;
      }
      return false;
    }
  }
  stop_.store(false, std::memory_order_release);

  // The map every worker advertises, worker 0 on the base address. Built
  // (and frozen) before any thread exists.
  std::vector<std::string> advertised;
  for (const SocketAddress& address : addresses) {
    advertised.push_back(address.to_string());
  }
  map_ = PartitionMap::round_robin(std::move(advertised), config_.partitions);

  workers_.clear();
  workers_.reserve(config_.workers);
  for (std::size_t k = 0; k < config_.workers; ++k) {
    workers_.push_back(
        std::make_unique<Worker>(map_, static_cast<std::uint32_t>(k)));
    workers_.back()->address = addresses[k];
  }

  // Bind every listener before spawning anything: a taken address fails
  // the whole start, with the workers bound so far cleanly unwound.
  for (std::size_t k = 0; k < config_.workers; ++k) {
    std::string bind_error;
    if (!workers_[k]->transport.listen(workers_[k]->address, &bind_error)) {
      if (error != nullptr) {
        *error = "worker " + std::to_string(k) + ": " + bind_error;
      }
      workers_.clear();  // closes the already-bound listeners
      return false;
    }
  }

  stats_.assign(config_.workers, WorkerStats{});
  threads_.reserve(config_.workers);
  for (std::size_t k = 0; k < config_.workers; ++k) {
    threads_.emplace_back([this, k] { run_worker(k); });
  }
  return true;
}

void LocateServer::run_worker(std::size_t index) {
  Worker& worker = *workers_[index];
  while (!stop_.load(std::memory_order_acquire)) {
    worker.transport.poll_once(kPollTickMs);
  }
  // Snapshot into the control thread's slot; published by thread join.
  WorkerStats& out = stats_[index];
  out.address = worker.address.to_string();
  out.transport = worker.transport.stats();
  out.counters = worker.service.counters();
  out.bindings = worker.service.directory().size();
  worker.transport.close_all();
}

void LocateServer::stop() {
  stop_.store(true, std::memory_order_release);
  for (std::thread& thread : threads_) {
    if (thread.joinable()) thread.join();
  }
  threads_.clear();
}

}  // namespace agentloc::net
