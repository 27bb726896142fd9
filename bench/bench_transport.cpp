// Transport-plane benchmark (A14): the zero-copy frame codec and the real
// socket backend, measured at the three levels DESIGN.md §17 argues about:
//
//   1. frame_encode / frame_decode — codec throughput, single-threaded,
//      pooled buffers (acceptance floor: ≥ 1M frames/s each);
//   2. coalesced/uncoalesced socketpair bursts — syscalls per frame with
//      writev gather vs. one write per frame (floor: ≥ 4× reduction at
//      burst depth 8);
//   3. uds_locate_workers/w{W}_c{C} — end-to-end locate RPCs between two
//      real processes (fork + Unix-domain socket): a forked LocateServer
//      (agentlocd's stack) with W worker threads serving C routing clients
//      (LocateClient::connect) at once, each pipelining verified locates.
//      w1_c1 is the one-server, one-client round trip. Rows record
//      throughput, p95 window latency, and the per-worker op spread
//      (balance evidence for the round-robin leaf ownership). On a
//      1-hardware-thread box the sweep is a determinism/balance contract,
//      not a speedup claim — meta records hardware_threads so readers can
//      judge.
//
// Sandboxes without socket support still emit the codec rows; the socket
// rows are skipped and `meta.sockets_available` records 0 (the regression
// gate skips rows missing from the fresh run).
//
// Flags: --frames=2000000 --burst=8 --bursts=50000 --agents=1000
//        --ops=200000 --window=64 --seed=1 --json-out=BENCH_transport.json

#include <signal.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "net/frame.hpp"
#include "net/locate_server.hpp"
#include "net/locate_service.hpp"
#include "net/socket_transport.hpp"
#include "util/bench_report.hpp"
#include "util/flags.hpp"
#include "util/rng.hpp"
#include "util/summary.hpp"

using namespace agentloc;

namespace {

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

/// Encode `frames` kUpdate frames into pooled 16 KiB batch buffers —
/// the exact sender path of SocketTransport::send. Returns frames/s.
double bench_frame_encode(std::uint64_t frames, util::BufferPool& pool,
                          std::vector<std::uint8_t>& sample_out) {
  constexpr std::size_t kBatchCap = 16u << 10;
  const auto start = std::chrono::steady_clock::now();
  util::ByteWriter writer(pool.acquire(kBatchCap));
  for (std::uint64_t i = 0; i < frames; ++i) {
    const net::OpenFrame open =
        net::begin_frame(writer, net::FrameType::kUpdate, i & 0xff);
    writer.write_varint(util::mix64(i));
    writer.write_varint(i % 97);
    writer.write_varint(i);
    net::end_frame(writer, open);
    if (writer.size() >= kBatchCap) {
      if (sample_out.empty()) sample_out = writer.bytes();
      pool.release(std::move(writer).take());
      writer = util::ByteWriter(pool.acquire(kBatchCap));
    }
  }
  if (sample_out.empty()) sample_out = writer.bytes();
  pool.release(std::move(writer).take());
  return static_cast<double>(frames) / seconds_since(start);
}

/// Decode `frames` frames by replaying an encoded batch through a
/// FrameDecoder — the exact receiver path. Returns frames/s.
double bench_frame_decode(std::uint64_t frames,
                          const std::vector<std::uint8_t>& stream,
                          util::BufferPool& pool) {
  net::FrameDecoder decoder(pool);
  net::FrameView view;
  std::uint64_t decoded = 0;
  std::uint64_t checksum = 0;
  const auto start = std::chrono::steady_clock::now();
  while (decoded < frames) {
    decoder.feed(stream.data(), stream.size());
    for (;;) {
      const auto status = decoder.next(view);
      if (status != net::FrameDecoder::Status::kFrame) break;
      ++decoded;
      checksum += view.payload_size;
    }
  }
  const double rate = static_cast<double>(decoded) / seconds_since(start);
  if (checksum == 0) std::fprintf(stderr, "decode checksum empty?\n");
  return rate;
}

struct BurstResult {
  double frames_per_sec = 0;
  double syscalls_per_frame = 0;
};

/// Push `bursts` bursts of `burst` frames through a socketpair, flushing
/// once per burst, and drain them on the receiving transport.
bool bench_socketpair_burst(bool coalesce, std::uint64_t bursts,
                            std::uint64_t burst, BurstResult& out) {
  int fds[2] = {-1, -1};
  if (::socketpair(AF_UNIX, SOCK_STREAM, 0, fds) != 0) return false;

  net::SocketTransport::Config config;
  config.coalesce = coalesce;
  net::SocketTransport sender(config);
  net::SocketTransport receiver(config);
  const auto tx = sender.adopt(fds[0]);
  receiver.adopt(fds[1]);

  std::uint64_t received = 0;
  receiver.on_frame([&](net::SocketTransport::PeerId,
                        const net::FrameView&) { ++received; });

  const std::uint64_t total = bursts * burst;
  const auto start = std::chrono::steady_clock::now();
  std::uint64_t sent = 0;
  for (std::uint64_t b = 0; b < bursts; ++b) {
    for (std::uint64_t i = 0; i < burst; ++i) {
      sender.send(tx, net::FrameType::kUpdate, 0,
                  [&](util::ByteWriter& w) {
                    w.write_varint(util::mix64(sent));
                    w.write_varint(sent % 97);
                    w.write_varint(sent);
                  });
      ++sent;
    }
    sender.flush(tx);
    // Drain so neither side's socket buffer fills; one poll turn suffices
    // for a burst this small.
    while (received < sent) {
      if (receiver.poll_once(100) <= 0) break;
    }
  }
  while (received < total && receiver.poll_once(100) > 0) {
  }
  const double elapsed = seconds_since(start);
  if (received != total) return false;

  out.frames_per_sec = static_cast<double>(total) / elapsed;
  out.syscalls_per_frame =
      static_cast<double>(sender.stats().flush_syscalls) /
      static_cast<double>(total);
  return true;
}

struct SweepResult {
  double ops_per_sec = 0;
  double p95_window_us = 0;
  std::uint64_t mismatches = 0;
  std::uint64_t worker_ops_min = 0;
  std::uint64_t worker_ops_max = 0;
  std::size_t workers_effective = 0;
};

/// One cell of the sharded sweep: fork a LocateServer with `workers` worker
/// threads, then run `clients` routing clients (each its own thread + its
/// own LocateClient) issuing `ops / clients` pipelined locates. Latency is
/// sampled per window round-trip (send `window`, drain `window`); balance
/// comes from the clients' per-connection routing counters, summed.
bool bench_worker_sweep(std::size_t workers, std::size_t clients,
                        std::uint64_t agents, std::uint64_t ops,
                        std::size_t window, std::uint64_t seed,
                        SweepResult& out) {
  const std::string path = "/tmp/agentloc-bench-" +
                           std::to_string(::getpid()) + "-w" +
                           std::to_string(workers) + ".sock";
  net::SocketAddress address;
  address.kind = net::SocketAddress::Kind::kUnix;
  address.path = path;

  const pid_t child = ::fork();
  if (child < 0) return false;
  if (child == 0) {
    net::LocateServer::Config config;
    config.workers = workers;
    config.partitions = 8;
    net::LocateServer server(config);
    std::string error;
    if (!server.start(address, &error)) _exit(1);
    for (;;) ::pause();  // workers serve on their own threads
  }

  // Wait until every worker listener answers (they all bind before start()
  // returns in the child, so one successful connect proves all).
  {
    net::LocateClient probe;
    std::string error;
    bool up = false;
    for (int attempt = 0; attempt < 200; ++attempt) {
      if (probe.connect(address, &error)) {
        up = true;
        break;
      }
      ::usleep(20 * 1000);
    }
    if (!up) {
      ::kill(child, SIGKILL);
      ::waitpid(child, nullptr, 0);
      std::fprintf(stderr, "worker sweep: connect failed: %s\n",
                   error.c_str());
      return false;
    }
    out.workers_effective = probe.worker_count();
  }

  struct ClientResult {
    std::uint64_t completed = 0;
    std::uint64_t mismatches = 0;
    std::vector<std::uint64_t> per_worker_ops;
    util::Summary window_us;
    bool ok = false;
  };
  std::vector<ClientResult> results(clients);
  const std::uint64_t ops_per_client = ops / clients;

  // Connect/register/fence happen outside the timed region: every client
  // finishes setup, parks at the barrier, and the clock starts when all are
  // released — the measured window is pure concurrent query load.
  std::atomic<std::size_t> ready{0};
  std::atomic<bool> go{false};
  std::chrono::steady_clock::time_point start;

  std::vector<std::thread> threads;
  threads.reserve(clients);
  for (std::size_t c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      ClientResult& result = results[c];
      net::LocateClient client;
      std::string error;
      if (!client.connect(address, &error)) {
        ready.fetch_add(1);
        return;
      }

      // Disjoint id namespace per client so each verifies its own truth.
      std::vector<std::uint64_t> ids;
      std::vector<std::uint32_t> nodes;
      ids.reserve(agents);
      nodes.reserve(agents);
      for (std::uint64_t i = 1; i <= agents; ++i) {
        const std::uint64_t id = util::mix64(c * agents + i);
        const auto node = static_cast<std::uint32_t>(i % 97 + 1);
        client.send_update(id, node, 1);
        ids.push_back(id);
        nodes.push_back(node);
      }
      client.flush();
      const bool fenced = client.ping();  // fences updates on every shard
      ready.fetch_add(1);
      if (!fenced) return;
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();

      util::Rng rng(seed + c);
      std::vector<std::uint32_t> expect(ops_per_client + window + 1, 0);
      std::uint64_t issued = 0;
      while (result.completed < ops_per_client) {
        const std::uint64_t batch =
            std::min<std::uint64_t>(window, ops_per_client - issued);
        const auto window_start = std::chrono::steady_clock::now();
        for (std::uint64_t b = 0; b < batch; ++b) {
          const std::uint64_t pick = rng.next_below(ids.size());
          ++issued;
          expect[issued] = nodes[pick];
          client.send_locate(ids[pick], issued);
        }
        const auto replies = client.drain(issued - result.completed, 10000);
        result.window_us.add(seconds_since(window_start) * 1e6);
        if (replies.empty() && issued > result.completed) return;
        for (const auto& item : replies) {
          ++result.completed;
          if (item.reply.status != core::LocateStatus::kFound ||
              item.reply.node != expect[item.correlation]) {
            ++result.mismatches;
          }
        }
      }
      result.per_worker_ops = client.per_worker_ops();
      result.ok = true;
    });
  }
  while (ready.load(std::memory_order_acquire) < clients) {
    std::this_thread::yield();
  }
  start = std::chrono::steady_clock::now();
  go.store(true, std::memory_order_release);
  for (std::thread& thread : threads) thread.join();
  const double elapsed = seconds_since(start);

  ::kill(child, SIGKILL);
  ::waitpid(child, nullptr, 0);
  ::unlink(path.c_str());
  for (std::size_t k = 1; k < workers; ++k) {
    ::unlink((path + ".w" + std::to_string(k)).c_str());
  }

  std::vector<std::uint64_t> per_worker;
  util::Summary latency;
  std::uint64_t completed = 0;
  for (const ClientResult& result : results) {
    if (!result.ok) {
      std::fprintf(stderr, "worker sweep w=%zu c=%zu: a client failed\n",
                   workers, clients);
      return false;
    }
    completed += result.completed;
    out.mismatches += result.mismatches;
    latency.merge(result.window_us);
    if (per_worker.size() < result.per_worker_ops.size()) {
      per_worker.resize(result.per_worker_ops.size(), 0);
    }
    for (std::size_t k = 0; k < result.per_worker_ops.size(); ++k) {
      per_worker[k] += result.per_worker_ops[k];
    }
  }
  out.ops_per_sec = static_cast<double>(completed) / elapsed;
  out.p95_window_us = latency.percentile(95.0);
  out.worker_ops_min = *std::min_element(per_worker.begin(), per_worker.end());
  out.worker_ops_max = *std::max_element(per_worker.begin(), per_worker.end());
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  const util::Flags flags(argc, argv);
  std::uint64_t frames = 0;
  std::uint64_t burst = 0;
  std::uint64_t bursts = 0;
  std::uint64_t agents = 0;
  std::uint64_t ops = 0;
  std::size_t window = 0;
  std::uint64_t seed = 0;
  std::string json_out;
  try {
    frames = static_cast<std::uint64_t>(flags.get_int("frames", 2000000));
    burst = static_cast<std::uint64_t>(flags.get_int("burst", 8));
    bursts = static_cast<std::uint64_t>(flags.get_int("bursts", 50000));
    agents = static_cast<std::uint64_t>(flags.get_int("agents", 1000));
    ops = static_cast<std::uint64_t>(flags.get_int("ops", 200000));
    window = static_cast<std::size_t>(flags.get_int("window", 64));
    seed = static_cast<std::uint64_t>(flags.get_int("seed", 1));
    json_out = flags.get_string("json-out", "BENCH_transport.json");
    flags.fail_on_unknown();
  } catch (const std::invalid_argument& error) {
    std::fprintf(stderr, "bench_transport: %s\n", error.what());
    return 2;
  }

  const bool sockets = net::SocketTransport::sockets_available();

  util::BenchReport report("transport");
  report.meta()
      .set("frames", frames)
      .set("burst", burst)
      .set("window", static_cast<std::uint64_t>(window))
      .set("sockets_available", static_cast<std::uint64_t>(sockets ? 1 : 0))
      .set("hardware_threads",
           static_cast<std::uint64_t>(std::thread::hardware_concurrency()));

  const auto wall_start = std::chrono::steady_clock::now();

  // --- codec rows (always available) ---------------------------------------
  util::BufferPool pool;
  std::vector<std::uint8_t> sample;
  const double encode_rate = bench_frame_encode(frames, pool, sample);
  std::printf("frame_encode:   %8.2fM frames/s\n", encode_rate / 1e6);
  report.add_row()
      .set("name", "frame_encode")
      .set("items_per_second", encode_rate)
      .set("workers_effective", std::uint64_t{1});

  const double decode_rate = bench_frame_decode(frames, sample, pool);
  std::printf("frame_decode:   %8.2fM frames/s\n", decode_rate / 1e6);
  report.add_row()
      .set("name", "frame_decode")
      .set("items_per_second", decode_rate)
      .set("workers_effective", std::uint64_t{1});

  // --- socket rows ----------------------------------------------------------
  if (sockets) {
    BurstResult coalesced;
    BurstResult uncoalesced;
    if (bench_socketpair_burst(true, bursts, burst, coalesced) &&
        bench_socketpair_burst(false, bursts, burst, uncoalesced)) {
      const double reduction =
          coalesced.syscalls_per_frame > 0
              ? uncoalesced.syscalls_per_frame / coalesced.syscalls_per_frame
              : 0.0;
      std::printf(
          "socketpair burst %llu: coalesced %.3f syscalls/frame "
          "(%.2fM frames/s), uncoalesced %.3f (%.2fM frames/s) — %.1fx "
          "fewer syscalls\n",
          static_cast<unsigned long long>(burst),
          coalesced.syscalls_per_frame, coalesced.frames_per_sec / 1e6,
          uncoalesced.syscalls_per_frame, uncoalesced.frames_per_sec / 1e6,
          reduction);
      report.add_row()
          .set("name", "socketpair_coalesced")
          .set("burst", burst)
          .set("items_per_second", coalesced.frames_per_sec)
          .set("syscalls_per_frame", coalesced.syscalls_per_frame)
          .set("workers_effective", std::uint64_t{1});
      report.add_row()
          .set("name", "socketpair_uncoalesced")
          .set("burst", burst)
          .set("items_per_second", uncoalesced.frames_per_sec)
          .set("syscalls_per_frame", uncoalesced.syscalls_per_frame)
          .set("workers_effective", std::uint64_t{1});
      report.meta().set("syscall_reduction", reduction);
    } else {
      std::fprintf(stderr, "socketpair burst bench failed\n");
    }

    // --- sharded sweep: workers × clients ----------------------------------
    for (const std::size_t workers : {1u, 2u, 4u}) {
      for (const std::size_t clients : {1u, 2u}) {
        SweepResult sweep;
        if (!bench_worker_sweep(workers, clients, agents, ops, window, seed,
                                sweep)) {
          std::fprintf(stderr, "worker sweep w=%zu c=%zu failed\n", workers,
                       clients);
          return 1;
        }
        const double balance =
            sweep.worker_ops_min > 0
                ? static_cast<double>(sweep.worker_ops_max) /
                      static_cast<double>(sweep.worker_ops_min)
                : 0.0;
        std::printf(
            "uds_locate_workers w=%zu c=%zu: %.2fM ops/s, p95 window "
            "%.0fus, worker ops %llu..%llu (%.2fx), %llu mismatches\n",
            workers, clients, sweep.ops_per_sec / 1e6, sweep.p95_window_us,
            static_cast<unsigned long long>(sweep.worker_ops_min),
            static_cast<unsigned long long>(sweep.worker_ops_max), balance,
            static_cast<unsigned long long>(sweep.mismatches));
        report.add_row()
            .set("name", "uds_locate_workers/w" + std::to_string(workers) +
                             "_c" + std::to_string(clients))
            .set("workers", static_cast<std::uint64_t>(workers))
            .set("clients", static_cast<std::uint64_t>(clients))
            .set("workers_effective",
                 static_cast<std::uint64_t>(sweep.workers_effective))
            .set("agents", agents)
            .set("ops", ops)
            .set("items_per_second", sweep.ops_per_sec)
            .set("p95_window_us", sweep.p95_window_us)
            .set("worker_ops_min", sweep.worker_ops_min)
            .set("worker_ops_max", sweep.worker_ops_max)
            .set("balance_ratio", balance)
            .set("mismatches", sweep.mismatches);
        if (sweep.mismatches != 0) return 1;
      }
    }
  } else {
    std::printf("sockets unavailable: codec rows only\n");
  }

  report.meta().set("wall_seconds", seconds_since(wall_start));
  const std::string written = report.write(json_out);
  if (written.empty()) {
    std::fprintf(stderr, "failed to write %s\n", json_out.c_str());
    return 1;
  }
  std::printf("wrote %s\n", written.c_str());
  return 0;
}
