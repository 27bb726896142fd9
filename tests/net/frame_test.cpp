#include "net/frame.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "util/buffer_pool.hpp"
#include "util/bytebuffer.hpp"
#include "util/rng.hpp"

namespace agentloc::net {
namespace {

std::vector<std::uint8_t> encode_one(FrameType type, std::uint64_t correlation,
                                     const std::vector<std::uint8_t>& payload,
                                     std::uint8_t flags = 0) {
  util::ByteWriter writer;
  const OpenFrame open = begin_frame(writer, type, correlation, flags);
  writer.write_bytes(payload.data(), payload.size());
  end_frame(writer, open);
  return std::move(writer).take();
}

TEST(PaddedVarint, AlwaysFourBytesAndDecodesCanonically) {
  for (std::uint32_t value :
       {0u, 1u, 127u, 128u, 16383u, 16384u, (1u << 21), (1u << 28) - 1}) {
    util::ByteWriter writer;
    writer.write_varint4(value);
    ASSERT_EQ(writer.size(), 4u);
    util::ByteReader reader(writer.bytes());
    EXPECT_EQ(reader.read_varint(), value) << "value " << value;
    EXPECT_TRUE(reader.exhausted());
  }
}

TEST(PaddedVarint, RejectsValuesAbove28Bits) {
  util::ByteWriter writer;
  EXPECT_THROW(writer.write_varint4(1u << 28), std::length_error);
}

TEST(PaddedVarint, PatchRewritesInPlace) {
  util::ByteWriter writer;
  writer.write_u8(0xaa);
  const std::size_t slot = writer.size();
  writer.write_varint4(0);
  writer.write_u8(0xbb);
  writer.patch_varint4(slot, 1234567);
  util::ByteReader reader(writer.bytes());
  EXPECT_EQ(reader.read_u8(), 0xaa);
  EXPECT_EQ(reader.read_varint(), 1234567u);
  EXPECT_EQ(reader.read_u8(), 0xbb);
}

TEST(Frame, SingleFrameRoundTrip) {
  const std::vector<std::uint8_t> payload = {1, 2, 3, 4, 5};
  const auto bytes =
      encode_one(FrameType::kLocate, 42, payload, /*flags=*/0x01);

  util::BufferPool pool;
  FrameDecoder decoder(pool);
  decoder.feed(bytes.data(), bytes.size());

  FrameView view;
  ASSERT_EQ(decoder.next(view), FrameDecoder::Status::kFrame);
  EXPECT_EQ(view.type, FrameType::kLocate);
  EXPECT_EQ(view.correlation, 42u);
  EXPECT_EQ(view.flags, 0x01);
  ASSERT_EQ(view.payload_size, payload.size());
  EXPECT_EQ(std::memcmp(view.payload, payload.data(), payload.size()), 0);
  EXPECT_EQ(decoder.next(view), FrameDecoder::Status::kNeedMore);
  EXPECT_EQ(decoder.buffered(), 0u);
}

TEST(Frame, EmptyPayloadFrame) {
  const auto bytes = encode_one(FrameType::kPing, 7, {});
  util::BufferPool pool;
  FrameDecoder decoder(pool);
  decoder.feed(bytes.data(), bytes.size());
  FrameView view;
  ASSERT_EQ(decoder.next(view), FrameDecoder::Status::kFrame);
  EXPECT_EQ(view.type, FrameType::kPing);
  EXPECT_EQ(view.payload_size, 0u);
}

TEST(Frame, EndFrameReturnsTotalFrameSize) {
  util::ByteWriter writer;
  writer.write_u8(0xff);  // preceding content in the same batch buffer
  const OpenFrame open = begin_frame(writer, FrameType::kUpdate, 1);
  writer.write_varint(99);
  const std::size_t total = end_frame(writer, open);
  EXPECT_EQ(total, writer.size() - 1);
}

TEST(Frame, RandomizedStreamRoundTripIdentity) {
  // Satellite check: randomized payload round-trip through encode + chunked
  // decode is the identity, whatever the chunking.
  util::Rng rng(20260808);
  struct Expected {
    FrameType type;
    std::uint8_t flags;
    std::uint64_t correlation;
    std::vector<std::uint8_t> payload;
  };
  std::vector<Expected> expected;
  util::ByteWriter writer;
  for (int i = 0; i < 400; ++i) {
    Expected e;
    e.type = static_cast<FrameType>(1 + rng.next_below(10));
    e.flags = static_cast<std::uint8_t>(rng.next_below(256));
    e.correlation = rng.next();  // full 64-bit range
    e.payload.resize(rng.next_below(600));
    for (auto& byte : e.payload) {
      byte = static_cast<std::uint8_t>(rng.next_below(256));
    }
    const OpenFrame open =
        begin_frame(writer, e.type, e.correlation, e.flags);
    writer.write_bytes(e.payload.data(), e.payload.size());
    end_frame(writer, open);
    expected.push_back(std::move(e));
  }
  const std::vector<std::uint8_t> stream = std::move(writer).take();

  util::BufferPool pool;
  FrameDecoder decoder(pool);
  std::size_t fed = 0;
  std::size_t seen = 0;
  FrameView view;
  while (seen < expected.size()) {
    if (fed < stream.size()) {
      const std::size_t chunk =
          std::min<std::size_t>(1 + rng.next_below(97), stream.size() - fed);
      decoder.feed(stream.data() + fed, chunk);
      fed += chunk;
    }
    for (;;) {
      const auto status = decoder.next(view);
      if (status == FrameDecoder::Status::kNeedMore) break;
      ASSERT_EQ(status, FrameDecoder::Status::kFrame);
      const Expected& e = expected[seen];
      EXPECT_EQ(view.type, e.type);
      EXPECT_EQ(view.flags, e.flags);
      EXPECT_EQ(view.correlation, e.correlation);
      ASSERT_EQ(view.payload_size, e.payload.size());
      if (!e.payload.empty()) {
        EXPECT_EQ(
            std::memcmp(view.payload, e.payload.data(), e.payload.size()), 0);
      }
      ++seen;
    }
  }
  EXPECT_EQ(seen, expected.size());
  EXPECT_EQ(fed, stream.size());
  EXPECT_EQ(decoder.buffered(), 0u);
}

TEST(Frame, TruncatedFrameReportsNeedMoreNotError) {
  const auto bytes =
      encode_one(FrameType::kUpdate, 9, std::vector<std::uint8_t>(64, 0x5a));
  util::BufferPool pool;
  for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
    FrameDecoder decoder(pool);
    decoder.feed(bytes.data(), cut);
    FrameView view;
    ASSERT_EQ(decoder.next(view), FrameDecoder::Status::kNeedMore)
        << "cut at " << cut;
    EXPECT_FALSE(decoder.failed());
    // Completing the stream yields the frame.
    decoder.feed(bytes.data() + cut, bytes.size() - cut);
    ASSERT_EQ(decoder.next(view), FrameDecoder::Status::kFrame);
  }
}

TEST(Frame, BadMagicIsCleanError) {
  auto bytes = encode_one(FrameType::kUpdate, 1, {1, 2, 3});
  bytes[0] = 0x00;
  util::BufferPool pool;
  FrameDecoder decoder(pool);
  decoder.feed(bytes.data(), bytes.size());
  FrameView view;
  EXPECT_EQ(decoder.next(view), FrameDecoder::Status::kError);
  EXPECT_TRUE(decoder.failed());
  EXPECT_NE(decoder.error().find("magic"), std::string::npos);
  // Sticky: further input cannot resurrect a poisoned stream.
  decoder.feed(bytes.data(), bytes.size());
  EXPECT_EQ(decoder.next(view), FrameDecoder::Status::kError);
}

TEST(Frame, OversizedLengthIsCleanError) {
  // A header declaring exactly the cap waits for its payload and then
  // decodes; one byte more, or double the cap, is refused before any
  // payload arrives.
  for (const std::size_t length :
       {kMaxFramePayload, kMaxFramePayload + 1, 2 * kMaxFramePayload}) {
    SCOPED_TRACE(length);
    util::ByteWriter writer;
    writer.write_u8(kFrameMagic);
    writer.write_u8(static_cast<std::uint8_t>(FrameType::kUpdate));
    writer.write_u8(0);
    writer.write_varint(1);  // correlation
    writer.write_varint4(static_cast<std::uint32_t>(length));
    const auto bytes = std::move(writer).take();

    util::BufferPool pool;
    FrameDecoder decoder(pool);
    decoder.feed(bytes.data(), bytes.size());
    FrameView view;
    if (length == kMaxFramePayload) {
      EXPECT_EQ(decoder.next(view), FrameDecoder::Status::kNeedMore);
      const std::vector<std::uint8_t> payload(length, 7);
      decoder.feed(payload.data(), payload.size());
      ASSERT_EQ(decoder.next(view), FrameDecoder::Status::kFrame);
      EXPECT_EQ(view.payload_size, kMaxFramePayload);
      EXPECT_FALSE(decoder.failed());
      continue;
    }
    EXPECT_EQ(decoder.next(view), FrameDecoder::Status::kError);
    EXPECT_NE(decoder.error().find("cap"), std::string::npos);
  }
}

TEST(Frame, CorruptCorrelationVarintIsCleanError) {
  std::vector<std::uint8_t> bytes = {kFrameMagic,
                                     static_cast<std::uint8_t>(FrameType::kPing),
                                     0};
  // 10 continuation bytes: a 64-bit varint cannot be this long.
  for (int i = 0; i < 10; ++i) bytes.push_back(0xff);
  util::BufferPool pool;
  FrameDecoder decoder(pool);
  decoder.feed(bytes.data(), bytes.size());
  FrameView view;
  EXPECT_EQ(decoder.next(view), FrameDecoder::Status::kError);
  EXPECT_NE(decoder.error().find("correlation"), std::string::npos);
}

TEST(Frame, CorruptLengthVarintIsCleanError) {
  std::vector<std::uint8_t> bytes = {kFrameMagic,
                                     static_cast<std::uint8_t>(FrameType::kPing),
                                     0, /*correlation=*/1};
  for (int i = 0; i < 6; ++i) bytes.push_back(0xff);  // length varint > 32 bits
  util::BufferPool pool;
  FrameDecoder decoder(pool);
  decoder.feed(bytes.data(), bytes.size());
  FrameView view;
  EXPECT_EQ(decoder.next(view), FrameDecoder::Status::kError);
  EXPECT_NE(decoder.error().find("length"), std::string::npos);
}

TEST(Frame, GarbageAfterValidFrameFailsAtTheBoundary) {
  auto bytes = encode_one(FrameType::kPong, 3, {9, 9});
  bytes.push_back(0x17);  // not kFrameMagic
  util::BufferPool pool;
  FrameDecoder decoder(pool);
  decoder.feed(bytes.data(), bytes.size());
  FrameView view;
  ASSERT_EQ(decoder.next(view), FrameDecoder::Status::kFrame);
  EXPECT_EQ(view.type, FrameType::kPong);
  EXPECT_EQ(decoder.next(view), FrameDecoder::Status::kError);
}

TEST(Frame, WritableCommitPathMatchesFeed) {
  const auto bytes = encode_one(FrameType::kHello, 5, {42});
  util::BufferPool pool;
  FrameDecoder decoder(pool);
  // The zero-copy recv path: write straight into the decoder's buffer.
  std::uint8_t* dst = decoder.writable(bytes.size());
  std::memcpy(dst, bytes.data(), bytes.size());
  decoder.commit(bytes.size());
  FrameView view;
  ASSERT_EQ(decoder.next(view), FrameDecoder::Status::kFrame);
  EXPECT_EQ(view.type, FrameType::kHello);
  ASSERT_EQ(view.payload_size, 1u);
  EXPECT_EQ(view.payload[0], 42);
}

TEST(Frame, DecoderReturnsBufferToPoolOnDestruction) {
  util::BufferPool pool;
  {
    FrameDecoder decoder(pool);
    const auto bytes = encode_one(FrameType::kPing, 1, {});
    decoder.feed(bytes.data(), bytes.size());
  }
  EXPECT_EQ(pool.pooled_count(), 1u);
}

}  // namespace
}  // namespace agentloc::net
