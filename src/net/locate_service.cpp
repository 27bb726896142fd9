#include "net/locate_service.hpp"

#include <algorithm>
#include <chrono>
#include <stdexcept>
#include <utility>

namespace agentloc::net {
namespace {

std::int64_t now_ms() {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// True when the map entry `advertised` names the worker a client reached by
/// dialing `dialed`: the same address, or the same TCP port on the wildcard
/// host, since a worker bound to 0.0.0.0 accepts on every local address.
bool names_dialed(const std::string& advertised, const SocketAddress& dialed) {
  if (advertised == dialed.to_string()) return true;
  SocketAddress listed;
  return dialed.kind == SocketAddress::Kind::kTcp &&
         SocketAddress::parse(advertised, listed, nullptr) &&
         listed.kind == SocketAddress::Kind::kTcp &&
         listed.host == "0.0.0.0" && listed.port == dialed.port;
}

}  // namespace

PartitionMap PartitionMap::round_robin(std::vector<std::string> addresses,
                                       std::size_t partitions) {
  PartitionMap map;
  map.workers = addresses.size();
  map.partitions = partitions;
  map.tree_version = LocateDirectory::make_tree(partitions).version();
  map.addresses = std::move(addresses);
  for (std::size_t leaf = 0; leaf < partitions; ++leaf) {
    map.owner.push_back(static_cast<std::uint32_t>(leaf % map.workers));
  }
  return map;
}

void PartitionMap::encode(util::ByteWriter& writer) const {
  writer.write_varint(workers);
  writer.write_varint(partitions);
  writer.write_varint(tree_version);
  for (const std::string& address : addresses) writer.write_string(address);
  for (const std::uint32_t worker : owner) writer.write_varint(worker);
}

PartitionMap PartitionMap::decode(util::ByteReader& reader) {
  PartitionMap map;
  map.workers = reader.read_varint();
  map.partitions = reader.read_varint();
  map.tree_version = reader.read_varint();
  // Sanity bounds before the length-driven loops: a corrupt count must not
  // turn into a multi-gigabyte allocation.
  if (map.workers == 0 || map.workers > kMaxWorkers) {
    throw std::runtime_error("partition map: bad worker count");
  }
  if (map.partitions == 0 || map.partitions > kMaxPartitions) {
    throw std::runtime_error("partition map: bad partition count");
  }
  map.addresses.reserve(map.workers);
  for (std::uint64_t k = 0; k < map.workers; ++k) {
    map.addresses.push_back(reader.read_string());
  }
  map.owner.reserve(map.partitions);
  for (std::uint64_t leaf = 0; leaf < map.partitions; ++leaf) {
    const std::uint64_t worker = reader.read_varint();
    if (worker >= map.workers) {
      throw std::runtime_error("partition map: owner out of range");
    }
    map.owner.push_back(static_cast<std::uint32_t>(worker));
  }
  return map;
}

hashtree::HashTree LocateDirectory::make_tree(std::size_t partitions) {
  // Breadth-first simple splits: IAgent ids 1..P, so `iagent - 1` is the
  // table index. Every leaf sits at location 0 — within one agentlocd
  // process "location" is vestigial; the tree is used purely as the
  // id → partition hash (paper §3).
  if (partitions == 0) partitions = 1;
  hashtree::HashTree tree(1, 0);
  hashtree::IAgentId next = 2;
  while (tree.leaf_count() < partitions) {
    for (hashtree::IAgentId victim : tree.leaves()) {
      if (tree.leaf_count() >= partitions) break;
      tree.simple_split(victim, 1, next++, 0);
    }
  }
  return tree;
}

LocateDirectory::LocateDirectory(std::size_t partitions)
    : tree_(make_tree(partitions)), tables_(tree_.leaf_count()) {}

std::size_t LocateDirectory::partition_of(platform::AgentId agent) const {
  const hashtree::HashTree::Target target = tree_.lookup_id(agent);
  return static_cast<std::size_t>(target.iagent - 1);
}

bool LocateDirectory::apply_update(platform::AgentId agent, NodeId node,
                                   std::uint64_t seq) {
  if (agent == platform::kNoAgent || node == kNoNode) return false;
  return tables_[partition_of(agent)].apply(
      core::LocationEntry{agent, node, seq});
}

bool LocateDirectory::deregister_agent(platform::AgentId agent,
                                       std::uint64_t seq) {
  if (agent == platform::kNoAgent) return false;
  return tables_[partition_of(agent)].remove(agent, seq);
}

core::LocateReply LocateDirectory::locate(platform::AgentId agent) const {
  core::LocateReply reply;
  reply.version_hint = tree_.version();
  const auto entry = agent == platform::kNoAgent
                         ? std::nullopt
                         : tables_[partition_of(agent)].find(agent);
  if (!entry) {
    reply.status = core::LocateStatus::kUnknown;
    return reply;
  }
  reply.status = core::LocateStatus::kFound;
  reply.node = entry->node;
  reply.seq = entry->seq;
  return reply;
}

std::size_t LocateDirectory::size() const noexcept {
  std::size_t total = 0;
  for (const core::LocationTable& table : tables_) total += table.size();
  return total;
}

LocateService::LocateService(SocketTransport& transport,
                             const PartitionMap& map, std::uint32_t self)
    : transport_(transport),
      map_(map),
      directory_(static_cast<std::size_t>(map.partitions)),
      self_(self) {
  transport_.on_frame([this](SocketTransport::PeerId peer,
                             const FrameView& frame) {
    handle_frame(peer, frame);
  });
}

void LocateService::send_error(SocketTransport::PeerId peer,
                               std::uint64_t correlation,
                               const std::string& message) {
  ++counters_.protocol_errors;
  transport_.send(peer, FrameType::kError, correlation,
                  [&](util::ByteWriter& w) { w.write_string(message); });
  transport_.flush(peer);
}

void LocateService::send_locate_reply(SocketTransport::PeerId peer,
                                      std::uint64_t correlation,
                                      const core::LocateReply& reply) {
  transport_.send(peer, FrameType::kLocateReply, correlation,
                  [&](util::ByteWriter& w) {
                    w.write_u8(static_cast<std::uint8_t>(reply.status));
                    w.write_varint(reply.node);
                    w.write_varint(reply.seq);
                    w.write_varint(reply.version_hint);
                  });
}

bool LocateService::refuse_if_foreign(SocketTransport::PeerId peer,
                                      std::uint64_t correlation,
                                      platform::AgentId agent, bool reply) {
  if (map_.owner[directory_.partition_of(agent)] == self_) return false;
  // Paper §4.3 trigger (ii): the requester's routing is stale. Nothing is
  // applied; the client holds the map, so the reply names no owner.
  ++counters_.not_responsible;
  if (reply) {
    core::LocateReply refusal;
    refusal.status = core::LocateStatus::kNotResponsible;
    refusal.version_hint = directory_.tree_version();
    send_locate_reply(peer, correlation, refusal);
  }
  return true;
}

void LocateService::handle_frame(SocketTransport::PeerId peer,
                                 const FrameView& frame) {
  util::ByteReader reader = frame.payload_reader();
  const bool wants_ack = (frame.flags & kFlagWantAck) != 0;
  // Payload decode errors (truncated/garbled fields) answer kError instead
  // of killing the server; the transport already rejected malformed frames.
  try {
    switch (frame.type) {
      case FrameType::kHello: {
        const std::uint64_t version = reader.read_varint();
        if (version != kLocateProtocolVersion) {
          send_error(peer, frame.correlation, "protocol version mismatch");
          return;
        }
        transport_.send(peer, FrameType::kHelloAck, frame.correlation,
                        [&](util::ByteWriter& w) {
                          w.write_varint(kLocateProtocolVersion);
                          w.write_varint(directory_.partition_count());
                          w.write_varint(directory_.tree_version());
                        });
        transport_.flush(peer);
        return;
      }
      case FrameType::kUpdate: {
        ++counters_.updates;
        const platform::AgentId agent = reader.read_varint();
        const NodeId node = static_cast<NodeId>(reader.read_varint());
        const std::uint64_t seq = reader.read_varint();
        if (refuse_if_foreign(peer, frame.correlation, agent, wants_ack)) {
          return;
        }
        const bool applied = directory_.apply_update(agent, node, seq);
        if (applied) ++counters_.updates_applied;
        if (wants_ack) {
          transport_.send(peer, FrameType::kUpdateAck, frame.correlation,
                          [&](util::ByteWriter& w) {
                            w.write_bool(applied);
                            w.write_varint(directory_.tree_version());
                          });
        }
        return;
      }
      case FrameType::kLocate: {
        ++counters_.locates;
        const platform::AgentId agent = reader.read_varint();
        // Refused ops are never applied, so only an owned leaf's table holds
        // bindings: a found one needs no owner check, and only a miss walks
        // the tree a second time.
        const core::LocateReply reply = directory_.locate(agent);
        if (reply.status == core::LocateStatus::kFound) {
          ++counters_.locates_found;
        } else if (refuse_if_foreign(peer, frame.correlation, agent, true)) {
          return;
        }
        send_locate_reply(peer, frame.correlation, reply);
        return;
      }
      case FrameType::kDeregister: {
        ++counters_.deregisters;
        const platform::AgentId agent = reader.read_varint();
        const std::uint64_t seq = reader.read_varint();
        if (refuse_if_foreign(peer, frame.correlation, agent, wants_ack)) {
          return;
        }
        const bool applied = directory_.deregister_agent(agent, seq);
        if (wants_ack) {
          transport_.send(peer, FrameType::kUpdateAck, frame.correlation,
                          [&](util::ByteWriter& w) {
                            w.write_bool(applied);
                            w.write_varint(directory_.tree_version());
                          });
        }
        return;
      }
      case FrameType::kPing: {
        transport_.send(peer, FrameType::kPong, frame.correlation, nullptr);
        transport_.flush(peer);
        return;
      }
      case FrameType::kPartitionMap: {
        transport_.send(peer, FrameType::kPartitionMap, frame.correlation,
                        [&](util::ByteWriter& w) { map_.encode(w); });
        transport_.flush(peer);
        return;
      }
      default:
        send_error(peer, frame.correlation, "unexpected frame type");
        return;
    }
  } catch (const std::exception& error) {
    send_error(peer, frame.correlation,
               std::string("bad payload: ") + error.what());
  }
}

LocateClient::LocateClient() {
  transport_.on_frame([this](SocketTransport::PeerId peer,
                             const FrameView& frame) {
    handle_frame(peer, frame);
  });
  transport_.on_disconnect([this](SocketTransport::PeerId peer) {
    // Losing any worker connection poisons the client: pipelined frames may
    // be half-delivered, so further ops must fail fast, not silently route
    // around the dead shard.
    if (std::find(workers_.begin(), workers_.end(), peer) != workers_.end()) {
      disconnected_ = true;
      if (last_error_.empty()) last_error_ = "server disconnected";
    }
  });
}

bool LocateClient::connected() const noexcept {
  return !disconnected_ && !workers_.empty() &&
         std::all_of(workers_.begin(), workers_.end(),
                     [this](SocketTransport::PeerId peer) {
                       return transport_.peer_open(peer);
                     });
}

SocketTransport::PeerId LocateClient::peer_for(platform::AgentId agent) {
  if (workers_.empty()) return SocketTransport::kInvalidPeer;
  // One worker owns every leaf and needs no tree.
  const std::size_t worker =
      route_tree_ ? map_.owner[route_tree_->lookup_id(agent).iagent - 1] : 0;
  ++per_worker_ops_[worker];
  return workers_[worker];
}

void LocateClient::handle_frame(SocketTransport::PeerId,
                                const FrameView& frame) {
  if (frame.type == FrameType::kLocateReply &&
      frame.correlation != sync_correlation_) {
    // Pipelined locate reply.
    try {
      util::ByteReader reader = frame.payload_reader();
      PipelinedReply entry;
      entry.correlation = frame.correlation;
      entry.reply.status =
          static_cast<core::LocateStatus>(reader.read_u8());
      entry.reply.node = static_cast<NodeId>(reader.read_varint());
      entry.reply.seq = reader.read_varint();
      entry.reply.version_hint = reader.read_varint();
      pipelined_.push_back(entry);
    } catch (const std::exception&) {
      // drop the malformed reply; the waiter times out
    }
    return;
  }
  if (frame.correlation != sync_correlation_) return;
  sync_waiter_.done = true;
  sync_waiter_.type = frame.type;
  try {
    util::ByteReader reader = frame.payload_reader();
    switch (frame.type) {
      case FrameType::kHelloAck: {
        const std::uint64_t version = reader.read_varint();
        partitions_ = reader.read_varint();
        sync_waiter_.ack_applied = version == kLocateProtocolVersion;
        break;
      }
      case FrameType::kUpdateAck:
        sync_waiter_.ack_applied = reader.read_bool();
        break;
      case FrameType::kLocateReply:
        sync_waiter_.reply.status =
            static_cast<core::LocateStatus>(reader.read_u8());
        sync_waiter_.reply.node = static_cast<NodeId>(reader.read_varint());
        sync_waiter_.reply.seq = reader.read_varint();
        sync_waiter_.reply.version_hint = reader.read_varint();
        break;
      case FrameType::kPong:
        break;
      case FrameType::kPartitionMap:
        map_ = PartitionMap::decode(reader);
        break;
      default:  // kError or unexpected
        sync_waiter_.type = FrameType::kError;
        break;
    }
  } catch (const std::exception&) {
    sync_waiter_.type = FrameType::kError;
  }
}

bool LocateClient::wait_for(std::uint64_t correlation, int timeout_ms) {
  sync_correlation_ = correlation;
  sync_waiter_ = Waiter{};
  transport_.flush_all();
  const std::int64_t deadline = now_ms() + timeout_ms;
  while (!sync_waiter_.done) {
    if (!connected()) break;
    const std::int64_t left = deadline - now_ms();
    if (left <= 0) break;
    transport_.poll_once(static_cast<int>(left));
  }
  sync_correlation_ = 0;
  return sync_waiter_.done;
}

bool LocateClient::handshake(SocketTransport::PeerId peer, int timeout_ms) {
  const std::uint64_t correlation = next_correlation_++;
  transport_.send(peer, FrameType::kHello, correlation,
                  [](util::ByteWriter& w) {
                    w.write_varint(kLocateProtocolVersion);
                  });
  return wait_for(correlation, timeout_ms) &&
         sync_waiter_.type == FrameType::kHelloAck &&
         sync_waiter_.ack_applied;
}

bool LocateClient::connect(const SocketAddress& address, std::string* error,
                           int timeout_ms) {
  // Close every connection held or dialed so far: a deliberate close, not
  // a peer failure, so it fires no disconnect.
  const auto close_workers = [this] {
    for (const SocketTransport::PeerId peer : workers_) {
      transport_.close_peer(peer);
    }
    workers_.clear();
    route_tree_.reset();
    disconnected_ = false;
  };
  const auto fail = [&](const std::string& message) {
    close_workers();
    last_error_ = message;
    if (error != nullptr) *error = message;
    return false;
  };
  close_workers();
  last_error_.clear();
  map_ = PartitionMap{};

  std::string dial_error;
  const SocketTransport::PeerId dialed =
      transport_.connect(address, &dial_error);
  if (dialed == SocketTransport::kInvalidPeer) {
    return fail(dial_error.empty() ? "connect failed" : dial_error);
  }
  workers_.push_back(dialed);
  if (!handshake(dialed, timeout_ms)) return fail("handshake failed");
  const std::uint64_t correlation = next_correlation_++;
  transport_.send(dialed, FrameType::kPartitionMap, correlation, nullptr);
  if (!wait_for(correlation, timeout_ms) ||
      sync_waiter_.type != FrameType::kPartitionMap) {
    return fail("partition map fetch failed");
  }
  if (map_.partitions != partitions_) {
    return fail("partition map inconsistent");
  }
  // The dialed connection is the worker the map lists at its address. A
  // one-worker map needs no match: whatever address reached the server (an
  // alias such as a symlink) reached its only worker.
  std::size_t self = 0;
  if (map_.workers > 1) {
    const auto named =
        std::find_if(map_.addresses.begin(), map_.addresses.end(),
                     [&](const std::string& advertised) {
                       return names_dialed(advertised, address);
                     });
    if (named == map_.addresses.end()) {
      return fail("partition map does not name " + address.to_string());
    }
    self = static_cast<std::size_t>(named - map_.addresses.begin());
  }
  for (std::size_t k = 0; k < map_.workers; ++k) {
    if (k == self) continue;
    SocketAddress worker_address;
    if (!SocketAddress::parse(map_.addresses[k], worker_address,
                              &dial_error)) {
      return fail("bad worker address: " + dial_error);
    }
    const SocketTransport::PeerId peer =
        transport_.connect(worker_address, &dial_error);
    if (peer == SocketTransport::kInvalidPeer) {
      return fail("worker dial failed: " + dial_error);
    }
    workers_.push_back(peer);
    if (!handshake(peer, timeout_ms)) return fail("worker handshake failed");
  }
  // Dialed first, then every other worker by index: move the dialed
  // connection to its own index.
  std::rotate(workers_.begin(), workers_.begin() + 1,
              workers_.begin() + static_cast<std::ptrdiff_t>(self) + 1);
  per_worker_ops_.assign(workers_.size(), 0);
  // Rebuild the server's deterministic pre-split tree: the id → leaf map is
  // a pure function of the partition count, so routing needs no tree bytes
  // on the wire. One worker owns every leaf and needs no tree.
  if (map_.workers > 1) {
    route_tree_.emplace(LocateDirectory::make_tree(
        static_cast<std::size_t>(map_.partitions)));
  }
  return true;
}

bool LocateClient::send_update(platform::AgentId agent, NodeId node,
                               std::uint64_t seq) {
  return transport_.send(peer_for(agent), FrameType::kUpdate, 0,
                         [&](util::ByteWriter& w) {
                           w.write_varint(agent);
                           w.write_varint(node);
                           w.write_varint(seq);
                         });
}

std::optional<bool> LocateClient::update(platform::AgentId agent, NodeId node,
                                         std::uint64_t seq, int timeout_ms) {
  const std::uint64_t correlation = next_correlation_++;
  if (!connected()) return std::nullopt;
  transport_.send(
      peer_for(agent), FrameType::kUpdate, correlation,
      [&](util::ByteWriter& w) {
        w.write_varint(agent);
        w.write_varint(node);
        w.write_varint(seq);
      },
      kFlagWantAck);
  if (!wait_for(correlation, timeout_ms) ||
      sync_waiter_.type != FrameType::kUpdateAck) {
    return std::nullopt;
  }
  return sync_waiter_.ack_applied;
}

std::optional<core::LocateReply> LocateClient::locate(platform::AgentId agent,
                                                      int timeout_ms) {
  if (!connected()) return std::nullopt;
  const std::uint64_t correlation = next_correlation_++;
  transport_.send(peer_for(agent), FrameType::kLocate, correlation,
                  [&](util::ByteWriter& w) { w.write_varint(agent); });
  if (!wait_for(correlation, timeout_ms) ||
      sync_waiter_.type != FrameType::kLocateReply) {
    return std::nullopt;
  }
  return sync_waiter_.reply;
}

bool LocateClient::send_deregister(platform::AgentId agent,
                                   std::uint64_t seq) {
  return transport_.send(peer_for(agent), FrameType::kDeregister, 0,
                         [&](util::ByteWriter& w) {
                           w.write_varint(agent);
                           w.write_varint(seq);
                         });
}

bool LocateClient::ping(int timeout_ms) {
  // Round-trip every worker connection: a ping is the client's write fence,
  // so it must drain the pipeline on all shards, not just worker 0.
  if (!connected()) return false;
  for (const SocketTransport::PeerId peer : workers_) {
    const std::uint64_t correlation = next_correlation_++;
    transport_.send(peer, FrameType::kPing, correlation, nullptr);
    if (!wait_for(correlation, timeout_ms) ||
        sync_waiter_.type != FrameType::kPong) {
      return false;
    }
  }
  return true;
}

void LocateClient::send_locate(platform::AgentId agent,
                               std::uint64_t correlation) {
  transport_.send(peer_for(agent), FrameType::kLocate, correlation,
                  [&](util::ByteWriter& w) { w.write_varint(agent); });
}

std::vector<LocateClient::PipelinedReply> LocateClient::drain(
    std::size_t count, int timeout_ms) {
  transport_.flush_all();
  const std::int64_t deadline = now_ms() + timeout_ms;
  while (pipelined_.size() < count && connected()) {
    const std::int64_t left = deadline - now_ms();
    if (left <= 0) break;
    transport_.poll_once(static_cast<int>(left));
  }
  std::vector<PipelinedReply> out = std::move(pipelined_);
  pipelined_.clear();
  return out;
}

void LocateClient::flush() { transport_.flush_all(); }

}  // namespace agentloc::net
