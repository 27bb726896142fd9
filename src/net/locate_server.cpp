#include "net/locate_server.hpp"

#include <utility>

namespace agentloc::net {

/// One worker's whole serving stack, heap-pinned so the thread can hold a
/// stable pointer while the vector that owns the workers never reallocates
/// after start(). Everything here is touched only by the owning thread once
/// the thread spawns — except the live_* atomics, which the control thread
/// reads with relaxed loads.
struct LocateServer::Worker {
  SocketAddress address;
  SocketTransport transport;
  LocateService service;
  std::atomic<std::uint64_t> live_locates{0};
  std::atomic<std::uint64_t> live_ops{0};

  Worker(SocketTransport::Config transport_config, std::size_t partitions,
         const PartitionMap* map)
      : transport(transport_config), service(transport, partitions, map) {}
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
  if (running_.load(std::memory_order_acquire) || !threads_.empty()) {
    if (error != nullptr) *error = "server already started";
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

  // The map every worker advertises: round-robin leaf ownership, worker 0
  // on the base address. Built (and frozen) before any thread exists.
  map_ = PartitionMap{};
  map_.workers = config_.workers;
  map_.partitions = config_.partitions;
  for (const SocketAddress& address : addresses) {
    map_.addresses.push_back(address.to_string());
  }
  for (std::size_t leaf = 0; leaf < config_.partitions; ++leaf) {
    map_.owner.push_back(static_cast<std::uint32_t>(leaf % config_.workers));
  }

  SocketTransport::Config transport_config;
  transport_config.reuse_port = true;

  workers_.clear();
  workers_.reserve(config_.workers);
  for (std::size_t k = 0; k < config_.workers; ++k) {
    workers_.push_back(std::make_unique<Worker>(transport_config,
                                                config_.partitions, &map_));
    workers_.back()->address = addresses[k];
  }
  map_.tree_version = workers_.front()->service.directory().tree_version();

  // Bind every listener before spawning anything: a conflict on worker 3
  // must fail the whole start, with workers 0..2 cleanly unwound.
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
  running_.store(true, std::memory_order_release);
  threads_.reserve(config_.workers);
  for (std::size_t k = 0; k < config_.workers; ++k) {
    threads_.emplace_back([this, k] { run_worker(k); });
  }
  return true;
}

void LocateServer::run_worker(std::size_t index) {
  Worker& worker = *workers_[index];
  while (!stop_.load(std::memory_order_acquire)) {
    worker.transport.poll_once(config_.poll_timeout_ms);
    const LocateService::Counters& counters = worker.service.counters();
    worker.live_locates.store(counters.locates, std::memory_order_relaxed);
    worker.live_ops.store(
        counters.updates + counters.locates + counters.deregisters,
        std::memory_order_relaxed);
    if (config_.max_locates != 0 && live_locates_total() >= config_.max_locates) {
      // Quota served across the fleet: ask every worker to wind down. The
      // others notice within one poll tick.
      stop_.store(true, std::memory_order_release);
    }
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
  running_.store(false, std::memory_order_release);
}

bool LocateServer::running() const noexcept {
  return running_.load(std::memory_order_acquire) &&
         !stop_.load(std::memory_order_acquire);
}

std::uint64_t LocateServer::live_locates_total() const {
  std::uint64_t total = 0;
  for (const auto& worker : workers_) {
    total += worker->live_locates.load(std::memory_order_relaxed);
  }
  return total;
}

std::vector<std::uint64_t> LocateServer::live_locates() const {
  std::vector<std::uint64_t> out;
  out.reserve(workers_.size());
  for (const auto& worker : workers_) {
    out.push_back(worker->live_locates.load(std::memory_order_relaxed));
  }
  return out;
}

std::uint64_t LocateServer::live_ops() const {
  std::uint64_t total = 0;
  for (const auto& worker : workers_) {
    total += worker->live_ops.load(std::memory_order_relaxed);
  }
  return total;
}

}  // namespace agentloc::net
