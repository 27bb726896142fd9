#include "util/bytebuffer.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <stdexcept>

#include "util/rng.hpp"

namespace agentloc::util {
namespace {

TEST(ByteBuffer, FixedWidthRoundTrip) {
  ByteWriter writer;
  writer.write_u8(0xab);
  writer.write_u32(0xdeadbeef);
  writer.write_bool(true);
  writer.write_bool(false);

  ByteReader reader(writer.bytes());
  EXPECT_EQ(reader.read_u8(), 0xab);
  EXPECT_EQ(reader.read_u32(), 0xdeadbeefu);
  EXPECT_TRUE(reader.read_bool());
  EXPECT_FALSE(reader.read_bool());
  EXPECT_TRUE(reader.exhausted());
}

TEST(ByteBuffer, VarintBoundaries) {
  ByteWriter writer;
  const std::uint64_t values[] = {0,    1,    127,  128,
                                  300,  16383, 16384,
                                  std::numeric_limits<std::uint64_t>::max()};
  for (auto v : values) writer.write_varint(v);
  ByteReader reader(writer.bytes());
  for (auto v : values) EXPECT_EQ(reader.read_varint(), v);
}

TEST(ByteBuffer, VarintCompactness) {
  ByteWriter writer;
  writer.write_varint(5);
  EXPECT_EQ(writer.size(), 1u);
  writer.write_varint(300);
  EXPECT_EQ(writer.size(), 3u);
}

TEST(ByteBuffer, StringRoundTrip) {
  ByteWriter writer;
  writer.write_string("");
  writer.write_string("hello agent");
  writer.write_string(std::string(1000, 'x'));
  ByteReader reader(writer.bytes());
  EXPECT_EQ(reader.read_string(), "");
  EXPECT_EQ(reader.read_string(), "hello agent");
  EXPECT_EQ(reader.read_string(), std::string(1000, 'x'));
}

TEST(ByteBuffer, BitsRoundTrip) {
  ByteWriter writer;
  writer.write_bits(BitString());
  writer.write_bits(BitString::parse("1"));
  writer.write_bits(BitString::parse("10110011101"));
  writer.write_bits(BitString(77, true));
  ByteReader reader(writer.bytes());
  EXPECT_EQ(reader.read_bits(), BitString());
  EXPECT_EQ(reader.read_bits(), BitString::parse("1"));
  EXPECT_EQ(reader.read_bits(), BitString::parse("10110011101"));
  EXPECT_EQ(reader.read_bits(), BitString(77, true));
}

TEST(ByteBuffer, TruncatedInputThrows) {
  ByteWriter writer;
  writer.write_u32(42);
  ByteReader reader(writer.bytes());
  reader.read_u8();
  reader.read_u8();
  EXPECT_THROW(reader.read_u32(), std::out_of_range);
}

TEST(ByteBuffer, TruncatedStringThrows) {
  ByteWriter writer;
  writer.write_varint(100);  // claims 100 bytes follow; none do
  ByteReader reader(writer.bytes());
  EXPECT_THROW(reader.read_string(), std::out_of_range);
}

TEST(ByteBuffer, MalformedVarintThrows) {
  // Eleven continuation bytes exceed the 64-bit range.
  std::vector<std::uint8_t> bytes(11, 0xff);
  ByteReader reader(bytes);
  EXPECT_THROW(reader.read_varint(), std::invalid_argument);
}

TEST(ByteBuffer, EmptyReaderThrows) {
  std::vector<std::uint8_t> empty;
  ByteReader reader(empty);
  EXPECT_TRUE(reader.exhausted());
  EXPECT_THROW(reader.read_u8(), std::out_of_range);
}

class ByteBufferProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ByteBufferProperty, MixedRoundTrip) {
  Rng rng(GetParam());
  ByteWriter writer;

  struct Op {
    int kind;
    std::uint64_t value;
    BitString bits;
  };
  std::vector<Op> ops;
  const auto count = 1 + rng.next_below(60);
  for (std::uint64_t i = 0; i < count; ++i) {
    Op op;
    op.kind = static_cast<int>(rng.next_below(3));
    switch (op.kind) {
      case 0:
        op.value = rng.next();
        writer.write_varint(op.value);
        break;
      case 1:
        op.value = static_cast<std::uint32_t>(rng.next());
        writer.write_u32(static_cast<std::uint32_t>(op.value));
        break;
      default: {
        const auto bit_count = rng.next_below(100);
        for (std::uint64_t b = 0; b < bit_count; ++b) {
          op.bits.push_back(rng.chance(0.5));
        }
        writer.write_bits(op.bits);
      }
    }
    ops.push_back(op);
  }

  ByteReader reader(writer.bytes());
  for (const Op& op : ops) {
    switch (op.kind) {
      case 0:
        EXPECT_EQ(reader.read_varint(), op.value);
        break;
      case 1:
        EXPECT_EQ(reader.read_u32(), op.value);
        break;
      default:
        EXPECT_EQ(reader.read_bits(), op.bits);
    }
  }
  EXPECT_TRUE(reader.exhausted());
}

INSTANTIATE_TEST_SUITE_P(Seeds, ByteBufferProperty,
                         ::testing::Range<std::uint64_t>(0, 15));

}  // namespace
}  // namespace agentloc::util
