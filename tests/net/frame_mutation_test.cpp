// Structure-aware mutation of frame streams. Valid frames of every request
// type are encoded by hand, so each header field can be bent on purpose:
// magic, type and flags bytes flipped, correlation and length varints
// written non-canonically or over-long, the length shifted by ±k, frames
// spliced mid-way into the next one or duplicated. Every mutated stream
// must end, through FrameDecoder, in one of three states: frames whose
// views stay inside the bytes fed, kNeedMore, or a sticky clean kError —
// the same end whether it is fed whole, in chunks by `feed`, or in chunks
// by `writable`/`commit` — and, where the mutations decide it, the exact
// frames and end the wire format prescribes. Through a LocateService loop
// over a socketpair, every frame the server decodes must be answered or
// rejected, by a service that owns every leaf and by one that refuses
// another worker's leaves. Seeds are fixed; the suite is also run under
// ASan/UBSan.

#include <fcntl.h>
#include <gtest/gtest.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdint>
#include <cstring>
#include <iterator>
#include <optional>
#include <vector>

#include "net/frame.hpp"
#include "net/locate_service.hpp"
#include "net/socket_transport.hpp"
#include "util/buffer_pool.hpp"
#include "util/rng.hpp"

namespace agentloc::net {
namespace {

/// A frame as it goes on the wire, with every header field exposed.
struct FrameSpec {
  std::uint8_t magic = kFrameMagic;
  std::uint8_t type = 0;
  std::uint8_t flags = 0;
  std::uint64_t correlation = 0;
  std::size_t correlation_width = 0;  ///< 0: canonical LEB128
  std::size_t length_width = 4;       ///< the encoder's padded form
  std::int64_t length_shift = 0;      ///< added to the true payload length
  std::vector<std::uint8_t> payload;
};

/// LEB128 of `value`, padded with continuation bytes to `width` bytes when
/// that is wider than canonical (non-canonical up to 10 bytes for the
/// correlation and 5 for the length; over-long past that).
void put_varint(std::vector<std::uint8_t>& out, std::uint64_t value,
                std::size_t width) {
  std::size_t written = 0;
  do {
    const auto low = static_cast<std::uint8_t>(value & 0x7f);
    value >>= 7;
    ++written;
    const bool more = value != 0 || written < width;
    out.push_back(more ? (low | 0x80) : low);
  } while (value != 0 || written < width);
}

std::vector<std::uint8_t> encode(const FrameSpec& spec) {
  std::vector<std::uint8_t> out = {spec.magic, spec.type, spec.flags};
  put_varint(out, spec.correlation, spec.correlation_width);
  const std::int64_t length =
      static_cast<std::int64_t>(spec.payload.size()) + spec.length_shift;
  put_varint(out, static_cast<std::uint64_t>(length < 0 ? 0 : length),
             spec.length_width);
  out.insert(out.end(), spec.payload.begin(), spec.payload.end());
  return out;
}

/// A valid request frame of a random type, with a payload the service
/// accepts most of the time (random version numbers and agent id 0 get
/// rejected, which is part of the point).
FrameSpec random_frame(util::Rng& rng) {
  static constexpr FrameType kTypes[] = {
      FrameType::kHello,      FrameType::kUpdate, FrameType::kLocate,
      FrameType::kDeregister, FrameType::kPing,   FrameType::kPartitionMap};
  FrameSpec spec;
  const FrameType type = kTypes[rng.next_below(std::size(kTypes))];
  spec.type = static_cast<std::uint8_t>(type);
  spec.flags = rng.chance(0.5) ? kFlagWantAck : 0;
  spec.correlation = rng.chance(0.2) ? rng.next() : rng.next_below(1000);
  util::ByteWriter writer;
  // The hash tree routes on an id's leading bits, so the six random bits go
  // there: ops reach every leaf, and id 0 still occurs.
  const auto agent = rng.next_below(64) << 58;
  switch (type) {
    case FrameType::kHello:
      writer.write_varint(rng.chance(0.8) ? kLocateProtocolVersion
                                          : rng.next_below(5));
      break;
    case FrameType::kUpdate:
      writer.write_varint(agent);
      writer.write_varint(rng.next_below(16));
      writer.write_varint(rng.next_below(100));
      break;
    case FrameType::kLocate:
      writer.write_varint(agent);
      break;
    case FrameType::kDeregister:
      writer.write_varint(agent);
      writer.write_varint(rng.next_below(100));
      break;
    default:
      break;
  }
  spec.payload = std::move(writer).take();
  return spec;
}

/// A stream of valid frames with one to three structure-aware mutations,
/// and what the decoder must make of it as far as the mutations decide:
/// `frames` decode in order, then the stream ends in `end` — kNeedMore with
/// nothing buffered, or kError at the first frame with a bad magic byte or
/// an over-long varint. A splice or a shifted length leaves the rest of the
/// stream to chance, and `end` unset.
struct MutatedStream {
  std::vector<FrameSpec> frames;
  std::vector<std::uint8_t> bytes;
  std::optional<FrameDecoder::Status> end = FrameDecoder::Status::kNeedMore;
};

MutatedStream mutate(util::Rng& rng) {
  const std::size_t count = 1 + rng.next_below(12);
  std::vector<FrameSpec> specs;
  for (std::size_t i = 0; i < count; ++i) specs.push_back(random_frame(rng));
  std::vector<bool> spliced(count, false);
  std::vector<bool> duplicated(count, false);
  const std::size_t mutations = 1 + rng.next_below(3);
  for (std::size_t m = 0; m < mutations; ++m) {
    const std::size_t at = rng.next_below(count);
    FrameSpec& spec = specs[at];
    switch (rng.next_below(11)) {
      case 0:  // magic byte
        spec.magic ^= static_cast<std::uint8_t>(1 + rng.next_below(255));
        break;
      case 1:  // type byte: unknown or server-to-client types get kError
        spec.type = static_cast<std::uint8_t>(rng.next_below(256));
        break;
      case 2:  // flags byte
        spec.flags ^= static_cast<std::uint8_t>(1 + rng.next_below(255));
        break;
      case 3:  // non-canonical correlation, still at most 10 bytes
        spec.correlation_width = 1 + rng.next_below(10);
        break;
      case 4:  // over-long correlation
        spec.correlation_width = 11 + rng.next_below(4);
        break;
      case 5:  // canonical length
        spec.length_width = 0;
        break;
      case 6:  // five-byte length, still valid
        spec.length_width = 5;
        break;
      case 7:  // over-long length
        spec.length_width = 6 + rng.next_below(3);
        break;
      case 8: {  // length shifted by ±k
        const auto k = static_cast<std::int64_t>(1 + rng.next_below(8));
        spec.length_shift = rng.chance(0.5) ? k : -k;
        break;
      }
      case 9:  // cut mid-frame, the next frame spliced on
        spliced[at] = true;
        break;
      default:
        duplicated[at] = true;
        break;
    }
  }
  MutatedStream stream;
  bool decided = false;  // an earlier frame already fixed the end
  for (std::size_t i = 0; i < count; ++i) {
    const FrameSpec& spec = specs[i];
    std::vector<std::uint8_t> frame = encode(spec);
    if (spliced[i]) frame.resize(1 + rng.next_below(frame.size() - 1));
    for (int copy = duplicated[i] ? 2 : 1; copy > 0; --copy) {
      stream.bytes.insert(stream.bytes.end(), frame.begin(), frame.end());
      if (decided) continue;
      decided = true;
      if (spliced[i] || spec.length_shift != 0) {
        stream.end.reset();
      } else if (spec.magic != kFrameMagic || spec.correlation_width > 10 ||
                 spec.length_width > 5) {
        stream.end = FrameDecoder::Status::kError;
      } else {
        stream.frames.push_back(spec);
        decided = false;
      }
    }
  }
  return stream;
}

struct Decoded {
  std::uint8_t type;
  std::uint8_t flags;
  std::uint64_t correlation;
  std::vector<std::uint8_t> payload;
  bool operator==(const Decoded&) const = default;
};

struct Outcome {
  std::vector<Decoded> frames;
  FrameDecoder::Status end = FrameDecoder::Status::kNeedMore;
  std::size_t buffered = 0;
  bool operator==(const Outcome&) const = default;
};

enum class Path { kWhole, kFeedChunks, kWritableChunks };

/// Decode `bytes` through one input path, checking the decoder's contract
/// as it goes. `chunks` draws the chunk sizes.
Outcome decode(const std::vector<std::uint8_t>& bytes, Path path,
               util::Rng& chunks) {
  util::BufferPool pool;
  FrameDecoder decoder(pool);
  Outcome outcome;
  std::size_t fed = 0;
  while (fed < bytes.size()) {
    std::size_t size = bytes.size() - fed;
    if (path != Path::kWhole) {
      size = std::min<std::size_t>(size, 1 + chunks.next_below(64));
    }
    if (path == Path::kWritableChunks) {
      std::uint8_t* dst = decoder.writable(size + chunks.next_below(32));
      std::memcpy(dst, bytes.data() + fed, size);
      decoder.commit(size);
    } else {
      decoder.feed(bytes.data() + fed, size);
    }
    fed += size;
    FrameView view;
    for (;;) {
      const FrameDecoder::Status status = decoder.next(view);
      outcome.end = status;
      if (status != FrameDecoder::Status::kFrame) break;
      // The payload view ends where the consumed input ends, and its
      // bytes are exactly the input's there.
      const std::size_t consumed = fed - decoder.buffered();
      EXPECT_LE(view.payload_size, consumed);
      if (view.payload_size > consumed) return outcome;
      EXPECT_EQ(0, std::memcmp(view.payload,
                               bytes.data() + consumed - view.payload_size,
                               view.payload_size));
      outcome.frames.push_back(Decoded{
          static_cast<std::uint8_t>(view.type), view.flags, view.correlation,
          std::vector<std::uint8_t>(view.payload,
                                    view.payload + view.payload_size)});
    }
    if (outcome.end == FrameDecoder::Status::kError) {
      // Sticky and clean: more input changes nothing.
      EXPECT_TRUE(decoder.failed());
      EXPECT_FALSE(decoder.error().empty());
      const std::uint8_t more[] = {kFrameMagic, 5, 0, 0, 0};
      decoder.feed(more, sizeof(more));
      EXPECT_EQ(decoder.next(view), FrameDecoder::Status::kError);
      break;
    }
  }
  if (outcome.end == FrameDecoder::Status::kNeedMore) {
    outcome.buffered = decoder.buffered();
    EXPECT_FALSE(decoder.failed());
  }
  return outcome;
}

TEST(FrameMutator, MutatedStreamsEndCleanOnEveryInputPath) {
  util::Rng chunks(99);
  std::size_t frames = 0;
  std::size_t errors = 0;
  std::size_t need_more = 0;
  std::size_t decided = 0;  // streams whose end the mutations fix
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    util::Rng rng(seed);
    for (int i = 0; i < 4'000; ++i) {
      const MutatedStream stream = mutate(rng);
      const Outcome whole = decode(stream.bytes, Path::kWhole, chunks);
      ASSERT_EQ(decode(stream.bytes, Path::kFeedChunks, chunks), whole)
          << "seed " << seed << " stream " << i;
      ASSERT_EQ(decode(stream.bytes, Path::kWritableChunks, chunks), whole)
          << "seed " << seed << " stream " << i;
      frames += whole.frames.size();
      if (whole.end == FrameDecoder::Status::kError) {
        ++errors;
      } else {
        ++need_more;
      }
      if (stream.end) {
        ++decided;
        ASSERT_EQ(whole.end, *stream.end) << "seed " << seed << " stream " << i;
        EXPECT_EQ(whole.buffered, 0u);
        ASSERT_EQ(whole.frames.size(), stream.frames.size());
        for (std::size_t f = 0; f < stream.frames.size(); ++f) {
          const FrameSpec& spec = stream.frames[f];
          EXPECT_EQ(whole.frames[f],
                    (Decoded{spec.type, spec.flags, spec.correlation,
                             spec.payload}));
        }
      }
    }
  }
  // The mix reaches all three end states, and most streams have a
  // predicted end.
  EXPECT_GT(frames, 30'000u);
  EXPECT_GT(errors, 3'000u);
  EXPECT_GT(need_more, 3'000u);
  EXPECT_GT(decided, 16'000u);
}

/// Read whatever the server has sent so far without blocking.
void read_available(int fd, std::vector<std::uint8_t>& out) {
  std::uint8_t chunk[4096];
  for (;;) {
    const ssize_t got = ::read(fd, chunk, sizeof(chunk));
    if (got > 0) {
      out.insert(out.end(), chunk, chunk + got);
      continue;
    }
    if (got < 0 && errno == EINTR) continue;
    return;
  }
}

/// Feed 1,000 mutated streams to `service` over socketpairs. Every frame
/// it decodes must queue a reply (an answer, a kError or a kNotResponsible
/// refusal) or be a one-way update or deregister that was counted.
void expect_every_frame_answered(SocketTransport& server,
                                 LocateService& service) {
  std::size_t handled = 0;
  std::size_t unaccounted = 0;
  server.on_frame([&](SocketTransport::PeerId peer, const FrameView& frame) {
    const std::uint64_t sent = server.stats().frames_sent;
    const LocateService::Counters before = service.counters();
    service.handle_frame(peer, frame);
    ++handled;
    const LocateService::Counters& after = service.counters();
    const bool one_way =
        (frame.flags & kFlagWantAck) == 0 &&
        after.protocol_errors == before.protocol_errors &&
        ((frame.type == FrameType::kUpdate &&
          after.updates == before.updates + 1) ||
         (frame.type == FrameType::kDeregister &&
          after.deregisters == before.deregisters + 1));
    if (server.stats().frames_sent == sent && !one_way) ++unaccounted;
  });

  util::Rng rng(2024);
  util::Rng chunks(7);
  std::size_t expected_frames = 0;
  for (int i = 0; i < 1'000; ++i) {
    const MutatedStream stream = mutate(rng);
    const Outcome outcome = decode(stream.bytes, Path::kWhole, chunks);
    expected_frames += outcome.frames.size();

    int fds[2];
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    const SocketTransport::PeerId peer = server.adopt(fds[0]);
    ASSERT_NE(peer, SocketTransport::kInvalidPeer);
    ASSERT_EQ(::write(fds[1], stream.bytes.data(), stream.bytes.size()),
              static_cast<ssize_t>(stream.bytes.size()));
    const std::uint64_t received = server.stats().bytes_received;
    const std::uint64_t sent = server.stats().frames_sent;
    for (int turn = 0; turn < 200 && server.peer_open(peer) &&
                       server.stats().bytes_received - received <
                           stream.bytes.size();
         ++turn) {
      server.poll_once(10);
    }
    ASSERT_EQ(handled, expected_frames) << "stream " << i;
    EXPECT_EQ(server.peer_open(peer),
              outcome.end == FrameDecoder::Status::kNeedMore)
        << "a decode error closes the connection, nothing else does";

    // Every reply the server wrote is a well-formed frame.
    ::fcntl(fds[1], F_SETFL, O_NONBLOCK);
    std::vector<std::uint8_t> replies;
    read_available(fds[1], replies);
    util::Rng whole_chunks(1);
    const Outcome answered = decode(replies, Path::kWhole, whole_chunks);
    EXPECT_EQ(answered.end, FrameDecoder::Status::kNeedMore);
    if (server.peer_open(peer)) {
      EXPECT_EQ(answered.buffered, 0u);
      EXPECT_EQ(answered.frames.size(), server.stats().frames_sent - sent)
          << "stream " << i;
      server.close_peer(peer);
    }
    ::close(fds[1]);
  }
  EXPECT_EQ(unaccounted, 0u);
  EXPECT_GT(handled, 2'000u);
}

TEST(FrameMutator, LocateServiceAnswersOrRejectsEveryDecodedFrame) {
  if (!SocketTransport::sockets_available()) {
    GTEST_SKIP() << "sandbox cannot create sockets";
  }
  {
    SCOPED_TRACE("a service that owns every leaf");
    const PartitionMap map = PartitionMap::round_robin(
        {"unix:/tmp/agentloc-mutator.sock"}, /*partitions=*/4);
    SocketTransport server;
    LocateService service(server, map, /*self=*/0);
    expect_every_frame_answered(server, service);
    EXPECT_EQ(service.counters().not_responsible, 0u);
  }
  {
    // Worker 0 of two refuses the ops on leaves 1 and 3.
    SCOPED_TRACE("worker 0 of a 2-worker map");
    const PartitionMap map = PartitionMap::round_robin(
        {"unix:/tmp/agentloc-mutator.sock",
         "unix:/tmp/agentloc-mutator.sock.w1"},
        /*partitions=*/4);
    ASSERT_EQ(map.owner, (std::vector<std::uint32_t>{0, 1, 0, 1}));
    SocketTransport server;
    LocateService service(server, map, /*self=*/0);
    expect_every_frame_answered(server, service);
    EXPECT_GT(service.counters().not_responsible, 0u);
  }
}

}  // namespace
}  // namespace agentloc::net
