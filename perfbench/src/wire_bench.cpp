// `wire-mixed`: an in-process `net::LocateServer` (2 workers, UDS, 8
// partitions) driven by one `net::LocateClient::connect_cluster` client on
// the calling thread, so at most three threads run.
//
// Each round starts a server, preloads the bindings (set-up), then offers an
// open-loop op stream at a fixed nominal rate: 90% locate, 9% update (move
// with a new seq) and 1% deregister-then-re-register, with exponential
// inter-arrival gaps drawn from the seed. Every locate is timed from the
// moment it was due and its reply is checked against the generator's own
// ground truth. A saturation phase then offers ops as fast as the client
// can send them with a bounded number in flight, giving the highest rate the
// pair sustains without a growing backlog. Rounds repeat until --seconds is
// spent; figures are medians over rounds.
//
// The traced run replays one nominal phase with spans around the client's
// calls, reads the server's counters after stop, and replays the op stream
// through the frame codec and a fresh `LocateDirectory` to time them alone.

#include <sched.h>
#include <sys/prctl.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <functional>
#include <iostream>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "net/frame.hpp"
#include "net/locate_server.hpp"
#include "net/locate_service.hpp"
#include "trace.hpp"
#include "util/rng.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using namespace agentloc;

constexpr std::size_t kAgents = 100'000;
constexpr std::size_t kNodes = 1024;
constexpr std::size_t kWorkers = 2;
constexpr std::size_t kPartitions = 8;
/// Nominal offered rate and duration of the latency phase.
constexpr double kNominalRate = 50'000.0;
constexpr double kNominalSeconds = 1.0;
/// Latency limit on the locate p99, and the longest a reply may take before
/// it counts as a timeout. The limit sits above the few-millisecond stalls a
/// shared virtual machine imposes when several threads run at once, so that
/// it is crossed by a growing queue, not by host scheduling.
constexpr double kLimitUs = 10'000.0;
constexpr std::uint64_t kReplyTimeoutNs = 2'000'000'000;
/// Saturation phase: ops offered as fast as the client sends them, with at
/// most kWindow locates in flight.
constexpr std::size_t kSaturationOps = 1'000'000;
constexpr std::size_t kWindow = 1024;
/// Correlations of pipelined locates start here so they never collide with
/// the client's own synchronous correlations (which count up from 1).
constexpr std::uint64_t kCorrelationBase = 1ull << 40;
/// Longest idle sleep of the client between turns.
constexpr std::uint64_t kIdleSleepNs = 20'000;

enum class OpKind : std::uint8_t { kLocate, kUpdate, kReregister };

struct Op {
  OpKind kind;
  std::uint32_t agent;  ///< index into the agent id table
  std::uint32_t node;   ///< new node for updates and re-registrations
  std::uint64_t due_ns;  ///< offset from the phase start
};

/// The generator's ground truth: what the directory must answer.
struct Binding {
  std::uint32_t node = 0;
  std::uint64_t seq = 0;
};

/// Agent ids and the op streams, all drawn from the seed.
struct Inputs {
  std::vector<platform::AgentId> ids;
  std::vector<std::uint32_t> initial_node;

  explicit Inputs(std::uint64_t seed) {
    util::Rng rng(seed);
    ids.reserve(kAgents);
    initial_node.reserve(kAgents);
    for (std::size_t i = 0; i < kAgents; ++i) {
      ids.push_back(rng.next() | 1u);  // never kNoAgent (0)
      initial_node.push_back(
          static_cast<std::uint32_t>(rng.next_below(kNodes)));
    }
  }

  /// `count` ops at `rate` per second (exponential gaps).
  static std::vector<Op> stream(util::Rng& rng, std::size_t count,
                                double rate) {
    std::vector<Op> ops;
    ops.reserve(count);
    double t = 0.0;
    for (std::size_t i = 0; i < count; ++i) {
      t += rng.exponential(1.0 / rate);
      const std::uint64_t pick = rng.next_below(100);
      const OpKind kind = pick < 90   ? OpKind::kLocate
                          : pick < 99 ? OpKind::kUpdate
                                      : OpKind::kReregister;
      const auto agent = static_cast<std::uint32_t>(rng.next_below(kAgents));
      const auto node = static_cast<std::uint32_t>(rng.next_below(kNodes));
      ops.push_back(Op{kind, agent, node, static_cast<std::uint64_t>(t * 1e9)});
    }
    return ops;
  }
};

/// What one open-loop phase observed.
struct PhaseResult {
  std::uint64_t offered = 0;
  std::uint64_t mismatched = 0;
  std::uint64_t timed_out = 0;
  std::vector<double> latency_us;
  std::vector<double> lag_us;
  std::size_t backlog_peak = 0;
  double wall_s = 0.0;      ///< first due time to last reply
  double busy_s = 0.0;      ///< loop turns that sent or received something
  std::uint64_t digest = 0;  ///< verified answers, order-independent

  std::uint64_t failed() const noexcept { return mismatched + timed_out; }
  double p99_us() const { return percentile(latency_us, 99.0); }
};

/// Span names for the traced phase (null tracer: untraced).
struct WireSpans {
  explicit WireSpans(Tracer& t)
      : setup(t.name("loadgen.setup")),
        phase(t.name("loadgen.phase")),
        teardown(t.name("loadgen.teardown")),
        send(t.name("net.locate.client_send")),
        flush(t.name("net.locate.client_flush")),
        drain(t.name("net.locate.client_drain")) {}
  Tracer::NameId setup, phase, teardown, send, flush, drain;
};

/// One server + client pair with every agent bound (seq 1).
class Cluster {
 public:
  Cluster(const std::string& socket_path, const Inputs& inputs)
      : server_(server_config()), truth_(kAgents) {
    net::SocketAddress address;
    std::string error;
    if (!net::SocketAddress::parse("unix:" + socket_path, address, &error) ||
        !server_.start(address, &error)) {
      throw std::runtime_error("server start failed: " + error);
    }
    if (!client_.connect_cluster(address, &error)) {
      throw std::runtime_error("connect_cluster failed: " + error);
    }
    if (client_.worker_count() != kWorkers) {
      throw std::runtime_error("client did not dial every worker");
    }
    for (std::size_t i = 0; i < kAgents; ++i) {
      truth_[i] = Binding{inputs.initial_node[i], 1};
      client_.send_update(inputs.ids[i], inputs.initial_node[i], 1);
      if (i % 1024 == 1023) client_.flush();
    }
    // A ping round-trips every worker connection: all preloads applied.
    if (!client_.ping(10'000)) throw std::runtime_error("preload ping failed");
  }

  /// Offer `ops` open loop on their schedule, or, with `window` > 0, as
  /// fast as the client can send while at most `window` locates are in
  /// flight (latency then counts from the send). Verifies every reply.
  PhaseResult run(const Inputs& inputs, const std::vector<Op>& ops,
                  Tracer* tracer, const WireSpans* spans,
                  std::size_t window = 0);

  /// Stop the server and return its per-worker snapshots.
  const std::vector<net::LocateServer::WorkerStats>& stop() {
    server_.stop();
    return server_.stats();
  }

  net::LocateClient& client() noexcept { return client_; }

 private:
  static net::LocateServer::Config server_config() {
    net::LocateServer::Config config;
    config.workers = kWorkers;
    config.partitions = kPartitions;
    return config;
  }

  struct Pending {
    std::uint64_t due_ns = 0;
    std::uint32_t node = 0;
    std::uint64_t seq = 0;
    bool open = false;
  };

  net::LocateServer server_;
  net::LocateClient client_;
  std::vector<Binding> truth_;
  std::uint64_t next_correlation_ = kCorrelationBase;
};

PhaseResult Cluster::run(const Inputs& inputs, const std::vector<Op>& ops,
                         Tracer* tracer, const WireSpans* spans,
                         std::size_t window) {
  PhaseResult result;
  result.offered = ops.size();
  result.latency_us.reserve(ops.size());
  result.lag_us.reserve(ops.size());
  std::vector<Pending> pending(ops.size());
  const std::uint64_t base = next_correlation_;
  next_correlation_ += ops.size();
  std::size_t outstanding = 0;
  std::uint64_t busy_ns = 0;

  const std::uint64_t start = now_ns() + 1'000'000;  // first op due in 1 ms
  while (now_ns() < start) {
  }
  const std::uint64_t give_up =
      start + (ops.empty() ? 0 : ops.back().due_ns) + kReplyTimeoutNs;
  std::uint64_t last_reply = start;
  std::size_t next = 0;
  while (next < ops.size() || outstanding > 0) {
    const std::uint64_t turn = now_ns();
    if (turn > give_up) break;
    bool sent = false;
    while (next < ops.size() &&
           (window > 0 ? outstanding < window
                       : start + ops[next].due_ns <= turn)) {
      const Op& op = ops[next];
      const std::uint64_t due = window > 0 ? turn : start + op.due_ns;
      result.lag_us.push_back(static_cast<double>(turn - due) * 1e-3);
      const platform::AgentId id = inputs.ids[op.agent];
      Binding& truth = truth_[op.agent];
      Span span(tracer, spans != nullptr ? spans->send : 0, base + next);
      switch (op.kind) {
        case OpKind::kLocate:
          pending[next] = Pending{due, truth.node, truth.seq, true};
          client_.send_locate(id, base + next);
          ++outstanding;
          break;
        case OpKind::kUpdate:
          truth = Binding{op.node, truth.seq + 1};
          client_.send_update(id, op.node, truth.seq);
          break;
        case OpKind::kReregister:
          client_.send_deregister(id, truth.seq + 1);
          truth = Binding{op.node, truth.seq + 2};
          client_.send_update(id, op.node, truth.seq);
          break;
      }
      ++next;
      sent = true;
    }
    if (sent) {
      Span span(tracer, spans != nullptr ? spans->flush : 0);
      client_.flush();
    }
    std::vector<net::LocateClient::PipelinedReply> replies;
    {
      Span span(tracer, spans != nullptr ? spans->drain : 0);
      client_.transport().poll_once(0);
      replies = client_.drain(0, 0);
    }
    const std::uint64_t received = now_ns();
    for (const auto& reply : replies) {
      const std::uint64_t index = reply.correlation - base;
      if (reply.correlation < base || index >= pending.size() ||
          !pending[index].open) {
        ++result.mismatched;
        continue;
      }
      Pending& expected = pending[index];
      expected.open = false;
      --outstanding;
      if (reply.reply.status != core::LocateStatus::kFound ||
          reply.reply.node != expected.node ||
          reply.reply.seq != expected.seq) {
        ++result.mismatched;
        continue;
      }
      // Replies from the two workers interleave in any order: combine the
      // per-answer hashes commutatively.
      Digest one;
      one.add(index);
      one.add(static_cast<std::uint64_t>(expected.node));
      one.add(expected.seq);
      result.digest += one.value();
      result.latency_us.push_back(
          static_cast<double>(received - expected.due_ns) * 1e-3);
      last_reply = received;
    }
    result.backlog_peak = std::max(result.backlog_peak, outstanding);
    if (sent || !replies.empty()) {
      busy_ns += now_ns() - turn;
    } else {
      // Idle turn: yield the CPU until the next op is due (at most
      // kIdleSleepNs, so replies are still picked up promptly). A spinning
      // client would compete with the server workers for the host's cores.
      std::uint64_t wait = kIdleSleepNs;
      if (window > 0) {
        // Window full and nothing arrived: block until a reply does.
        client_.transport().poll_once(1);
        wait = 0;
      } else if (next < ops.size()) {
        const std::uint64_t due = start + ops[next].due_ns;
        const std::uint64_t now = now_ns();
        wait = due > now ? std::min(wait, due - now) : 0;
      }
      if (wait > 0) {
        const timespec pause{0, static_cast<long>(wait)};
        nanosleep(&pause, nullptr);
      }
    }
    if (!client_.connected()) break;
  }
  result.timed_out = outstanding;
  result.wall_s = static_cast<double>(last_reply - start) * 1e-9;
  result.busy_s = static_cast<double>(busy_ns) * 1e-9;
  return result;
}

/// Saturation: the client offers ops as fast as it can with at most
/// kWindow locates in flight, so the backlog cannot grow; by Little's law
/// the window keeps the latency well inside the limit at any rate the
/// server sustains. Returns the phase (throughput = offered / wall_s).
PhaseResult saturate(Cluster& cluster, const Inputs& inputs, util::Rng& rng) {
  const auto ops = Inputs::stream(rng, kSaturationOps, kNominalRate);
  return cluster.run(inputs, ops, nullptr, nullptr, kWindow);
}

std::string socket_path(const Options& options) {
  return options.out_dir + "/wire-" + std::to_string(::getpid()) + ".sock";
}

double ratio(double numerator, double denominator) {
  return denominator > 0 ? numerator / denominator : 0.0;
}

/// Count a phase's operations and failures into the record and check the
/// server's post-stop counters: no protocol, decode or connection errors,
/// every update applied, every agent still bound.
void check_round(const PhaseResult& phase,
                 const std::vector<net::LocateServer::WorkerStats>& workers,
                 Record& record) {
  record.attempted += phase.offered;
  record.failed += phase.failed();
  std::uint64_t bindings = 0;
  std::uint64_t updates = 0;
  std::uint64_t applied = 0;
  for (const auto& worker : workers) {
    bindings += worker.bindings;
    updates += worker.counters.updates;
    applied += worker.counters.updates_applied;
    if (worker.counters.protocol_errors != 0 ||
        worker.transport.decode_errors != 0) {
      record.fail("server reported protocol or decode errors");
    }
  }
  // Worker directories cover every partition but only see their own
  // agents' traffic: the bound agents add up across workers.
  if (bindings != kAgents) record.fail("agents lost their binding");
  if (applied != updates) record.fail("an update with a newer seq was refused");
  if (phase.failed() != 0) {
    record.fail(std::to_string(phase.mismatched) + " mismatched and " +
                std::to_string(phase.timed_out) + " timed-out locates");
  }
}

}  // namespace

void run_wire_workload(const Options& options, Record& record) {
  if (!net::SocketTransport::sockets_available()) {
    throw std::runtime_error("sockets unavailable");
  }
  // Idle sleeps of a few microseconds need a tight timer slack.
  prctl(PR_SET_TIMERSLACK, 1000UL, 0, 0, 0);
  // Client and both workers share one CPU (the threads inherit the mask):
  // how many host cores happen to be free then cannot move the figures,
  // which measure the CPU cost of an op end to end.
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof(allowed), &allowed) == 0) {
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (!CPU_ISSET(cpu, &allowed)) continue;
      cpu_set_t one;
      CPU_ZERO(&one);
      CPU_SET(cpu, &one);
      sched_setaffinity(0, sizeof(one), &one);
      break;
    }
  }
  const Inputs inputs(options.seed);
  const std::string path = socket_path(options);
  // The nominal stream is the same in every round, so its verified answers
  // must be too; the saturation streams continue the generator.
  util::Rng rng(options.seed ^ 0x5eedull);
  const auto nominal = Inputs::stream(
      rng, static_cast<std::size_t>(kNominalRate * kNominalSeconds),
      kNominalRate);

  if (!options.trace) {
    std::vector<double> setup, p50, p99, ops_per_s, lag;
    double first_round_rss_mib = 0.0;
    std::uint64_t first_digest = 0;
    const double deadline = now_s() + options.seconds;
    double round_s = 0.0;
    std::size_t rounds = 0;
    do {
      const double round_start = now_s();
      Cluster cluster(path, inputs);
      setup.push_back(now_s() - round_start);
      const PhaseResult phase = cluster.run(inputs, nominal, nullptr, nullptr);
      const PhaseResult saturated = saturate(cluster, inputs, rng);
      record.attempted += saturated.offered;
      record.failed += saturated.failed();
      if (saturated.failed() != 0 || saturated.p99_us() > kLimitUs) {
        record.fail("saturation phase failed ops or broke the latency limit");
      }
      const double max_rate =
          static_cast<double>(saturated.offered) / saturated.wall_s;
      const auto& workers = cluster.stop();
      check_round(phase, workers, record);
      if (rounds == 0) first_digest = phase.digest;
      if (phase.digest != first_digest) {
        record.fail("nominal phase answers changed between rounds");
      }
      std::cout << "round " << rounds << ": setup_s " << setup.back()
                << ", locate p50/p99 us " << percentile(phase.latency_us, 50.0)
                << "/" << phase.p99_us() << ", lag p99 us "
                << percentile(phase.lag_us, 99.0) << ", saturation ops/s "
                << max_rate << " (p99 us " << saturated.p99_us() << ")\n";
      p50.push_back(percentile(phase.latency_us, 50.0) * 1e-3);
      p99.push_back(phase.p99_us() * 1e-3);
      ops_per_s.push_back(max_rate);
      lag.push_back(percentile(phase.lag_us, 99.0));
      if (rounds == 0) first_round_rss_mib = peak_rss_mib();
      ++rounds;
      round_s = now_s() - round_start;
    } while (now_s() + round_s <= deadline);
    if (!check_digest(options, "wire", first_digest)) {
      record.fail("nominal phase answers differ from an earlier run");
    }
    // Open-loop honesty: if the generator itself ran late, the latencies
    // describe the generator, not the server.
    if (median(lag) > kLimitUs) {
      record.fail("generator fell behind the nominal schedule");
    }
    std::cout << "rounds " << rounds << ", lag p99 us " << median(lag)
              << "\n";
    // Set-up redoes the same work every round and the saturation phase
    // offers the same load: a shared host can only slow them, so the run
    // reports the fastest set-up and the highest sustained rate. Latency is
    // a distribution at a fixed rate: medians over rounds.
    record.set("setup_s", *std::min_element(setup.begin(), setup.end()), "s");
    record.set("peak_rss_mib", first_round_rss_mib, "MiB");
    record.set("location_ms_p50", median(p50), "ms");
    record.set("location_ms_p99", median(p99), "ms");
    record.set("answered_ratio",
               ratio(static_cast<double>(record.attempted - record.failed),
                     static_cast<double>(record.attempted)),
               "ratio");
    const double best_rate =
        *std::max_element(ops_per_s.begin(), ops_per_s.end());
    record.set("served_ops_per_s", best_rate, "1/s");
    return;
  }

  // Traced: one untraced and one traced nominal phase on the same stream;
  // their verified answers and server counters must agree exactly.
  PhaseResult untraced;
  {
    Cluster cluster(path, inputs);
    untraced = cluster.run(inputs, nominal, nullptr, nullptr);
    check_round(untraced, cluster.stop(), record);
  }

  Tracer tracer;
  const WireSpans spans(tracer);
  const double traced_start = now_s();
  tracer.begin(spans.setup);
  auto cluster = std::make_unique<Cluster>(path, inputs);
  tracer.end();
  tracer.begin(spans.phase);
  const PhaseResult phase = cluster->run(inputs, nominal, &tracer, &spans);
  tracer.end();
  tracer.begin(spans.teardown);
  const net::SocketTransport::Stats client_stats =
      cluster->client().transport().stats();
  const util::BufferPool::Stats pool =
      cluster->client().transport().pool().stats();
  const std::vector<net::LocateServer::WorkerStats> workers = cluster->stop();
  cluster.reset();
  tracer.end();
  const double traced_s = now_s() - traced_start;
  check_round(phase, workers, record);
  if (phase.digest != untraced.digest) {
    record.fail("traced phase answers differ from the untraced phase");
  }
  if (!check_digest(options, "wire", phase.digest)) {
    record.fail("nominal phase answers differ from an earlier run");
  }

  const auto mean_ns = [&](const char* span) {
    const Tracer::Totals totals = tracer.totals(span);
    return ratio(static_cast<double>(totals.total_ns),
                 static_cast<double>(totals.count));
  };
  record.set("loadgen.lag_us_p99", percentile(phase.lag_us, 99.0), "us");
  record.set("loadgen.backlog_peak", static_cast<double>(phase.backlog_peak),
             "count");
  record.set("loadgen.offered_ops", static_cast<double>(phase.offered),
             "count");
  record.set("loadgen.self_s",
             static_cast<double>(tracer.layer_self_ns("loadgen")) * 1e-9, "s");
  record.set("net.locate.client_send_ns", mean_ns("net.locate.client_send"),
             "ns");
  record.set("net.locate.client_flush_ns", mean_ns("net.locate.client_flush"),
             "ns");
  record.set("net.locate.client_drain_ns", mean_ns("net.locate.client_drain"),
             "ns");
  record.set("net.locate.self_s",
             static_cast<double>(tracer.layer_self_ns("net.locate")) * 1e-9,
             "s");

  // Server-side socket and directory counters, summed over workers.
  net::SocketTransport::Stats server{};
  std::uint64_t ops_min = UINT64_MAX, ops_max = 0, bindings = 0, updates = 0,
                applied = 0, protocol_errors = 0;
  for (const auto& worker : workers) {
    const net::SocketTransport::Stats& t = worker.transport;
    server.frames_sent += t.frames_sent;
    server.frames_received += t.frames_received;
    server.bytes_sent += t.bytes_sent;
    server.bytes_received += t.bytes_received;
    server.flush_syscalls += t.flush_syscalls;
    server.read_syscalls += t.read_syscalls;
    server.disconnects += t.disconnects;
    server.decode_errors += t.decode_errors;
    const auto& c = worker.counters;
    const std::uint64_t worker_ops = c.updates + c.locates + c.deregisters;
    ops_min = std::min(ops_min, worker_ops);
    ops_max = std::max(ops_max, worker_ops);
    bindings += worker.bindings;
    updates += c.updates;
    applied += c.updates_applied;
    protocol_errors += c.protocol_errors;
  }
  const auto per_frame = [](std::uint64_t count, std::uint64_t frames) {
    return ratio(static_cast<double>(count), static_cast<double>(frames));
  };
  record.set("net.socket.client.flush_syscalls_per_frame",
             per_frame(client_stats.flush_syscalls, client_stats.frames_sent),
             "ratio");
  record.set("net.socket.client.read_syscalls_per_frame",
             per_frame(client_stats.read_syscalls,
                       client_stats.frames_received),
             "ratio");
  record.set("net.socket.server.flush_syscalls_per_frame",
             per_frame(server.flush_syscalls, server.frames_sent), "ratio");
  record.set("net.socket.server.read_syscalls_per_frame",
             per_frame(server.read_syscalls, server.frames_received), "ratio");
  record.set("net.socket.bytes_per_frame",
             per_frame(client_stats.bytes_sent + server.bytes_sent,
                       client_stats.frames_sent + server.frames_sent),
             "bytes");
  // Both sides are snapshotted before the client closes: any disconnect
  // counted by then is a dropped connection.
  const std::uint64_t unexpected_disconnects =
      client_stats.disconnects + server.disconnects;
  record.set("net.socket.decode_errors",
             static_cast<double>(client_stats.decode_errors +
                                 server.decode_errors),
             "count");
  record.set("net.socket.disconnects",
             static_cast<double>(unexpected_disconnects), "count");
  record.set("net.locate.protocol_errors",
             static_cast<double>(protocol_errors), "count");
  if (unexpected_disconnects != 0) record.fail("a connection dropped");
  record.set("net.server.worker_ops_min", static_cast<double>(ops_min),
             "count");
  record.set("net.server.worker_ops_max", static_cast<double>(ops_max),
             "count");
  record.set("net.server.bindings", static_cast<double>(bindings), "count");
  record.set("net.locate.updates_applied_ratio",
             ratio(static_cast<double>(applied), static_cast<double>(updates)),
             "ratio");
  record.set("util.buffer_pool.reuse_ratio",
             ratio(static_cast<double>(pool.reuses),
                   static_cast<double>(pool.acquires)),
             "ratio");

  // Codec alone: encode the nominal stream's frames, then decode them.
  {
    util::ByteWriter writer;
    // Like the transport's pooled batch buffers: no regrowth while timing.
    writer.reserve(nominal.size() * net::kFrameHeaderMax * 2);
    std::uint64_t encoded = 0;
    const std::uint64_t t0 = now_ns();
    for (std::size_t i = 0; i < nominal.size(); ++i) {
      const Op& op = nominal[i];
      const net::FrameType type = op.kind == OpKind::kLocate
                                      ? net::FrameType::kLocate
                                      : net::FrameType::kUpdate;
      const net::OpenFrame open =
          net::begin_frame(writer, type, kCorrelationBase + i);
      writer.write_varint(inputs.ids[op.agent]);
      if (type == net::FrameType::kUpdate) {
        writer.write_varint(op.node);
        writer.write_varint(i + 2);
      }
      encoded += net::end_frame(writer, open);
    }
    const std::uint64_t t1 = now_ns();
    util::BufferPool decode_pool;
    net::FrameDecoder decoder(decode_pool);
    decoder.feed(writer.bytes().data(), writer.bytes().size());
    net::FrameView view;
    std::size_t frames = 0;
    while (decoder.next(view) == net::FrameDecoder::Status::kFrame) ++frames;
    const std::uint64_t t2 = now_ns();
    if (frames != nominal.size() || encoded != writer.bytes().size()) {
      record.fail("frame codec replay lost frames");
    }
    record.set("net.frame.encode_ns",
               ratio(static_cast<double>(t1 - t0),
                     static_cast<double>(nominal.size())),
               "ns");
    record.set("net.frame.decode_ns",
               ratio(static_cast<double>(t2 - t1),
                     static_cast<double>(nominal.size())),
               "ns");
  }

  // Directory alone: preload, then the nominal stream by op kind.
  {
    net::LocateDirectory directory(kPartitions);
    std::vector<Binding> truth(kAgents);
    for (std::size_t i = 0; i < kAgents; ++i) {
      directory.apply_update(inputs.ids[i], inputs.initial_node[i], 1);
      truth[i] = Binding{inputs.initial_node[i], 1};
    }
    std::uint64_t ns[3] = {0, 0, 0};
    std::uint64_t count[3] = {0, 0, 0};
    std::uint64_t wrong = 0;
    for (const Op& op : nominal) {
      const platform::AgentId id = inputs.ids[op.agent];
      Binding& b = truth[op.agent];
      const std::uint64_t t0 = now_ns();
      switch (op.kind) {
        case OpKind::kLocate: {
          const core::LocateReply reply = directory.locate(id);
          if (reply.node != b.node || reply.seq != b.seq) ++wrong;
          break;
        }
        case OpKind::kUpdate:
          b = Binding{op.node, b.seq + 1};
          directory.apply_update(id, op.node, b.seq);
          break;
        case OpKind::kReregister:
          directory.deregister_agent(id, b.seq + 1);
          b = Binding{op.node, b.seq + 2};
          directory.apply_update(id, op.node, b.seq);
          break;
      }
      const auto kind = static_cast<std::size_t>(op.kind);
      ns[kind] += now_ns() - t0;
      ++count[kind];
    }
    if (wrong != 0) record.fail("directory replay disagreed with truth");
    record.set("net.locate.dir_locate_ns",
               ratio(static_cast<double>(ns[0]), static_cast<double>(count[0])),
               "ns");
    record.set("net.locate.dir_update_ns",
               ratio(static_cast<double>(ns[1]), static_cast<double>(count[1])),
               "ns");
    record.set("net.locate.dir_deregister_ns",
               ratio(static_cast<double>(ns[2]), static_cast<double>(count[2])),
               "ns");
  }

  // Tracing overhead: client busy time with spans over without.
  record.set("trace.overhead_ratio", ratio(phase.busy_s, untraced.busy_s),
             "ratio");
  const double top_level_s = static_cast<double>(tracer.top_level_ns()) * 1e-9;
  record.set("trace.self_sum_ratio", ratio(top_level_s, traced_s), "ratio");
  record.set("trace.spans", static_cast<double>(tracer.spans_recorded()),
             "count");
  if (std::abs(ratio(top_level_s, traced_s) - 1.0) > 0.05) {
    record.fail("top-level span self times miss the traced wall time by >5%");
  }
  const std::string dump = options.out_dir + "/" + options.workload + "-" +
                           std::to_string(options.seed) + ".spans.tsv";
  if (!tracer.write(dump)) record.fail("could not write " + dump);
}

}  // namespace perfbench
