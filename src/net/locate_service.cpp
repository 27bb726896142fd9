#include "net/locate_service.hpp"

#include <algorithm>
#include <chrono>
#include <stdexcept>

namespace agentloc::net {
namespace {

std::int64_t now_ms() {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

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
                             std::size_t partitions, const PartitionMap* map)
    : transport_(transport), directory_(partitions), map_(map) {
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

void LocateService::handle_frame(SocketTransport::PeerId peer,
                                 const FrameView& frame) {
  util::ByteReader reader = frame.payload_reader();
  // Payload decode errors (truncated/garbled fields) answer kError instead
  // of killing the server; the transport already rejected malformed frames.
  try {
    switch (frame.type) {
      case FrameType::kHello: {
        ++counters_.hellos;
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
        const bool applied = directory_.apply_update(agent, node, seq);
        if (applied) ++counters_.updates_applied;
        if ((frame.flags & kFlagWantAck) != 0) {
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
        const core::LocateReply reply = directory_.locate(agent);
        if (reply.status == core::LocateStatus::kFound) {
          ++counters_.locates_found;
        }
        transport_.send(peer, FrameType::kLocateReply, frame.correlation,
                        [&](util::ByteWriter& w) {
                          w.write_u8(static_cast<std::uint8_t>(reply.status));
                          w.write_varint(reply.node);
                          w.write_varint(reply.seq);
                          w.write_varint(reply.version_hint);
                        });
        return;
      }
      case FrameType::kDeregister: {
        ++counters_.deregisters;
        const platform::AgentId agent = reader.read_varint();
        const std::uint64_t seq = reader.read_varint();
        const bool applied = directory_.deregister_agent(agent, seq);
        if ((frame.flags & kFlagWantAck) != 0) {
          transport_.send(peer, FrameType::kUpdateAck, frame.correlation,
                          [&](util::ByteWriter& w) {
                            w.write_bool(applied);
                            w.write_varint(directory_.tree_version());
                          });
        }
        return;
      }
      case FrameType::kPing: {
        ++counters_.pings;
        transport_.send(peer, FrameType::kPong, frame.correlation, nullptr);
        transport_.flush(peer);
        return;
      }
      case FrameType::kPartitionMap: {
        ++counters_.partition_map_requests;
        transport_.send(peer, FrameType::kPartitionMap, frame.correlation,
                        [&](util::ByteWriter& w) {
                          if (map_ != nullptr) {
                            map_->encode(w);
                            return;
                          }
                          // Standalone: degenerate single-worker map, empty
                          // address = "the connection you already hold".
                          PartitionMap self;
                          self.workers = 1;
                          self.partitions = directory_.partition_count();
                          self.tree_version = directory_.tree_version();
                          self.addresses.assign(1, std::string());
                          self.owner.assign(directory_.partition_count(), 0);
                          self.encode(w);
                        });
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

LocateClient::LocateClient() : transport_(SocketTransport::Config{}) {
  transport_.on_frame([this](SocketTransport::PeerId peer,
                             const FrameView& frame) {
    handle_frame(peer, frame);
  });
  transport_.on_disconnect([this](SocketTransport::PeerId peer) {
    // Losing any worker connection poisons the client: pipelined frames may
    // be half-delivered, so further ops must fail fast, not silently route
    // around the dead shard.
    if (peer == server_ ||
        std::find(workers_.begin(), workers_.end(), peer) != workers_.end()) {
      disconnected_ = true;
      if (last_error_.empty()) last_error_ = "server disconnected";
    }
  });
}

bool LocateClient::connected() const noexcept {
  if (disconnected_) return false;
  if (!transport_.peer_open(server_)) return false;
  for (const SocketTransport::PeerId peer : workers_) {
    if (!transport_.peer_open(peer)) return false;
  }
  return true;
}

SocketTransport::PeerId LocateClient::peer_for(platform::AgentId agent) {
  if (!route_tree_) {
    if (!per_worker_ops_.empty()) ++per_worker_ops_[0];
    return server_;
  }
  const hashtree::HashTree::Target target = route_tree_->lookup_id(agent);
  const std::size_t leaf = static_cast<std::size_t>(target.iagent - 1);
  const std::uint32_t worker = leaf < map_.owner.size() ? map_.owner[leaf] : 0;
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
        has_map_ = true;
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

bool LocateClient::handshake(SocketTransport::PeerId peer, std::string* error,
                             int timeout_ms) {
  const std::uint64_t correlation = next_correlation_++;
  transport_.send(peer, FrameType::kHello, correlation,
                  [](util::ByteWriter& w) {
                    w.write_varint(kLocateProtocolVersion);
                  });
  if (!wait_for(correlation, timeout_ms) ||
      sync_waiter_.type != FrameType::kHelloAck ||
      !sync_waiter_.ack_applied) {
    if (error) *error = "handshake failed";
    return false;
  }
  return true;
}

bool LocateClient::connect(const SocketAddress& address, std::string* error,
                           int timeout_ms) {
  disconnected_ = false;
  last_error_.clear();
  has_map_ = false;
  route_tree_.reset();
  workers_.clear();
  per_worker_ops_.assign(1, 0);
  server_ = transport_.connect(address, error);
  if (server_ == SocketTransport::kInvalidPeer) {
    last_error_ = error != nullptr && !error->empty() ? *error
                                                      : "connect failed";
    return false;
  }
  if (!handshake(server_, error, timeout_ms)) {
    last_error_ = error != nullptr ? *error : "handshake failed";
    transport_.close_peer(server_);
    server_ = SocketTransport::kInvalidPeer;
    disconnected_ = false;  // deliberate close, not a peer failure
    return false;
  }
  workers_.push_back(server_);
  return true;
}

bool LocateClient::connect_cluster(const SocketAddress& address,
                                   std::string* error, int timeout_ms) {
  if (!connect(address, error, timeout_ms)) return false;
  const auto fail = [&](const std::string& message) {
    if (error != nullptr) *error = message;
    last_error_ = message;
    for (const SocketTransport::PeerId peer : workers_) {
      transport_.close_peer(peer);
    }
    workers_.clear();
    server_ = SocketTransport::kInvalidPeer;
    disconnected_ = false;  // deliberate close, not a peer failure
    route_tree_.reset();
    has_map_ = false;
    return false;
  };
  const std::uint64_t correlation = next_correlation_++;
  transport_.send(server_, FrameType::kPartitionMap, correlation, nullptr);
  if (!wait_for(correlation, timeout_ms) ||
      sync_waiter_.type != FrameType::kPartitionMap || !has_map_) {
    return fail("partition map fetch failed");
  }
  if (map_.workers <= 1) return true;  // degenerate: single connection
  if (map_.addresses.size() != map_.workers ||
      map_.owner.size() != map_.partitions) {
    return fail("partition map inconsistent");
  }
  per_worker_ops_.assign(static_cast<std::size_t>(map_.workers), 0);
  for (std::size_t k = 1; k < map_.workers; ++k) {
    SocketAddress worker_address;
    std::string worker_error;
    if (!SocketAddress::parse(map_.addresses[k], worker_address,
                              &worker_error)) {
      return fail("bad worker address: " + worker_error);
    }
    const SocketTransport::PeerId peer =
        transport_.connect(worker_address, &worker_error);
    if (peer == SocketTransport::kInvalidPeer) {
      return fail("worker dial failed: " + worker_error);
    }
    if (!handshake(peer, &worker_error, timeout_ms)) {
      transport_.close_peer(peer);
      return fail("worker handshake failed");
    }
    workers_.push_back(peer);
  }
  // Rebuild the server's deterministic pre-split tree: the id → leaf map is
  // a pure function of the partition count, so routing needs no tree bytes
  // on the wire.
  route_tree_.emplace(LocateDirectory::make_tree(
      static_cast<std::size_t>(map_.partitions)));
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
