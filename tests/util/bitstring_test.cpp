#include "util/bitstring.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "util/rng.hpp"

namespace agentloc::util {
namespace {

TEST(BitString, DefaultIsEmpty) {
  BitString bits;
  EXPECT_TRUE(bits.empty());
  EXPECT_EQ(bits.size(), 0u);
  EXPECT_EQ(bits.to_string(), "");
}

TEST(BitString, FilledConstructor) {
  BitString zeros(5, false);
  EXPECT_EQ(zeros.to_string(), "00000");
  BitString ones(70, true);
  EXPECT_EQ(ones.size(), 70u);
  for (std::size_t i = 0; i < 70; ++i) EXPECT_TRUE(ones[i]) << i;
}

TEST(BitString, InitializerList) {
  BitString bits{true, false, true, true};
  EXPECT_EQ(bits.to_string(), "1011");
  EXPECT_TRUE(bits.front());
  EXPECT_TRUE(bits.back());
}

TEST(BitString, ParseRoundTrip) {
  const std::string text = "0110100111000101";
  EXPECT_EQ(BitString::parse(text).to_string(), text);
}

TEST(BitString, ParseRejectsJunk) {
  EXPECT_THROW(BitString::parse("01x0"), std::invalid_argument);
  EXPECT_THROW(BitString::parse(" 01"), std::invalid_argument);
}

TEST(BitString, FromUintPadsToWidth) {
  EXPECT_EQ(BitString::from_uint(5, 8).to_string(), "00000101");
  EXPECT_EQ(BitString::from_uint(1, 1).to_string(), "1");
  EXPECT_EQ(BitString::from_uint(0, 4).to_string(), "0000");
}

TEST(BitString, FromUintFullWidth) {
  const std::uint64_t value = 0x8000000000000001ull;
  const BitString bits = BitString::from_uint(value, 64);
  EXPECT_TRUE(bits[0]);
  EXPECT_TRUE(bits[63]);
  for (std::size_t i = 1; i < 63; ++i) EXPECT_FALSE(bits[i]);
}

TEST(BitString, FromUintRejectsWideWidth) {
  EXPECT_THROW(BitString::from_uint(1, 65), std::invalid_argument);
}

TEST(BitString, AtThrowsOutOfRange) {
  BitString bits{true};
  EXPECT_THROW(bits.at(1), std::out_of_range);
  EXPECT_THROW(BitString().front(), std::out_of_range);
}

TEST(BitString, PushPopAcrossWordBoundary) {
  BitString bits;
  for (int i = 0; i < 130; ++i) bits.push_back(i % 3 == 0);
  EXPECT_EQ(bits.size(), 130u);
  for (int i = 129; i >= 0; --i) {
    EXPECT_EQ(bits.back(), i % 3 == 0) << i;
    bits.pop_back();
  }
  EXPECT_TRUE(bits.empty());
  EXPECT_THROW(bits.pop_back(), std::logic_error);
}

TEST(BitString, SetFlipsBits) {
  BitString bits(8, false);
  bits.set(3, true);
  EXPECT_EQ(bits.to_string(), "00010000");
  bits.set(3, false);
  EXPECT_EQ(bits.to_string(), "00000000");
  EXPECT_THROW(bits.set(8, true), std::out_of_range);
}

TEST(BitString, AppendConcatenates) {
  BitString a = BitString::parse("10");
  BitString b = BitString::parse("011");
  a.append(b);
  EXPECT_EQ(a.to_string(), "10011");
}

TEST(BitString, SelfAppendIsSafe) {
  BitString a = BitString::parse("101");
  a.append(a);
  EXPECT_EQ(a.to_string(), "101101");
}

TEST(BitString, PrefixSubstrSuffix) {
  const BitString bits = BitString::parse("1100101");
  EXPECT_EQ(bits.prefix(0).to_string(), "");
  EXPECT_EQ(bits.prefix(4).to_string(), "1100");
  EXPECT_EQ(bits.substr(2, 3).to_string(), "001");
  EXPECT_EQ(bits.suffix_from(5).to_string(), "01");
  EXPECT_EQ(bits.suffix_from(7).to_string(), "");
  EXPECT_THROW(bits.prefix(8), std::out_of_range);
  EXPECT_THROW(bits.substr(5, 3), std::out_of_range);
  EXPECT_THROW(bits.suffix_from(8), std::out_of_range);
}

TEST(BitString, PrefixClearsDroppedBits) {
  // Equality compares packed words; prefix must zero the dropped tail bits.
  const BitString bits = BitString::parse("1111");
  EXPECT_EQ(bits.prefix(2), BitString::parse("11"));
}

TEST(BitString, CommonPrefixLength) {
  EXPECT_EQ(BitString::parse("1010").common_prefix_length(
                BitString::parse("1001")),
            2u);
  EXPECT_EQ(BitString().common_prefix_length(BitString::parse("1")), 0u);
  // Exercise the word-at-a-time fast path.
  BitString a(200, true);
  BitString b(200, true);
  b.set(130, false);
  EXPECT_EQ(a.common_prefix_length(b), 130u);
}

TEST(BitString, ComparisonIsLexicographic) {
  EXPECT_LT(BitString::parse("0"), BitString::parse("1"));
  EXPECT_LT(BitString::parse("01"), BitString::parse("1"));
  EXPECT_LT(BitString::parse("1"), BitString::parse("10"));
  EXPECT_EQ(BitString::parse("10") <=> BitString::parse("10"),
            std::strong_ordering::equal);
}

TEST(BitString, EqualityIncludesLength) {
  EXPECT_NE(BitString::parse("10"), BitString::parse("100"));
  EXPECT_EQ(BitString::parse("10"), BitString::parse("10"));
}

TEST(BitString, ClearResets) {
  BitString bits = BitString::parse("111");
  bits.clear();
  EXPECT_TRUE(bits.empty());
  bits.push_back(true);
  EXPECT_EQ(bits.to_string(), "1");
}

// Property sweep: random round trips between representations.
class BitStringProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(BitStringProperty, StringRoundTrip) {
  Rng rng(GetParam());
  std::string text;
  const auto length = static_cast<std::size_t>(rng.next_below(300));
  for (std::size_t i = 0; i < length; ++i) {
    text.push_back(rng.chance(0.5) ? '1' : '0');
  }
  const BitString bits = BitString::parse(text);
  EXPECT_EQ(bits.to_string(), text);
  EXPECT_EQ(bits.size(), text.size());
}

TEST_P(BitStringProperty, SubstrRecombines) {
  Rng rng(GetParam() ^ 0xabcdef);
  BitString bits;
  const auto length = 1 + static_cast<std::size_t>(rng.next_below(200));
  for (std::size_t i = 0; i < length; ++i) bits.push_back(rng.chance(0.5));
  const auto cut = static_cast<std::size_t>(rng.next_below(length + 1));
  BitString head = bits.prefix(cut);
  const BitString tail = bits.suffix_from(cut);
  head.append(tail);
  EXPECT_EQ(head, bits);
}

TEST_P(BitStringProperty, UintRoundTrip) {
  Rng rng(GetParam() ^ 0x5eed);
  const std::uint64_t value = rng.next();
  const std::string text = BitString::from_uint(value, 64).to_string();
  EXPECT_EQ(std::stoull(text, nullptr, 2), value);
}

INSTANTIATE_TEST_SUITE_P(Seeds, BitStringProperty,
                         ::testing::Range<std::uint64_t>(0, 20));

// --- Word-boundary cases for the word-at-a-time kernels -------------------
// The interesting sizes straddle the 64-bit word seams and the inline-buffer
// boundary (kInlineBits = 128): 63/64/65 exercise the first seam, 127/128/129
// the transition from the small-buffer representation to the heap.

class BitStringBoundary : public ::testing::TestWithParam<std::size_t> {};

TEST_P(BitStringBoundary, PushPopReadBack) {
  const std::size_t n = GetParam();
  Rng rng(n * 977 + 1);
  std::vector<bool> expect;
  BitString bits;
  for (std::size_t i = 0; i < n; ++i) {
    const bool bit = rng.chance(0.5);
    expect.push_back(bit);
    bits.push_back(bit);
  }
  ASSERT_EQ(bits.size(), n);
  for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(bits[i], expect[i]) << i;
  for (std::size_t i = n; i-- > 0;) {
    bits.pop_back();
    ASSERT_EQ(bits.size(), i);
  }
}

TEST_P(BitStringBoundary, CopyAndEqualityAcrossRepresentations) {
  const std::size_t n = GetParam();
  Rng rng(n * 31 + 7);
  BitString bits;
  for (std::size_t i = 0; i < n; ++i) bits.push_back(rng.chance(0.5));

  const BitString copy = bits;
  EXPECT_EQ(copy, bits);

  BitString assigned;
  assigned = bits;
  EXPECT_EQ(assigned, bits);

  BitString moved = std::move(assigned);
  EXPECT_EQ(moved, bits);

  if (n > 0) {
    BitString flipped = bits;
    flipped.set(n - 1, !bits[n - 1]);
    EXPECT_NE(flipped, bits);
  }
}

TEST_P(BitStringBoundary, PackedRoundTripAtSeams) {
  const std::size_t n = GetParam();
  Rng rng(n * 131 + 3);
  BitString bits;
  for (std::size_t i = 0; i < n; ++i) bits.push_back(rng.chance(0.5));

  std::vector<std::uint8_t> packed((n + 7) / 8);
  bits.pack_msb(packed.data());
  EXPECT_EQ(BitString::from_packed_msb(packed.data(), n), bits);
}

TEST_P(BitStringBoundary, SubstrStraddlingWordSeams) {
  const std::size_t n = GetParam();
  Rng rng(n * 53 + 11);
  std::string text;
  BitString bits;
  for (std::size_t i = 0; i < n; ++i) {
    const bool bit = rng.chance(0.5);
    bits.push_back(bit);
    text.push_back(bit ? '1' : '0');
  }
  // Every cut around word multiples, plus full-width and empty cuts.
  for (const std::size_t start :
       {std::size_t{0}, std::size_t{1}, n / 2, n > 0 ? n - 1 : 0, n}) {
    for (std::size_t len : {std::size_t{0}, std::size_t{1}, std::size_t{63},
                            std::size_t{64}, std::size_t{65}, n}) {
      if (start > n) continue;
      len = std::min(len, n - start);
      EXPECT_EQ(bits.substr(start, len).to_string(),
                text.substr(start, len))
          << "start=" << start << " len=" << len;
    }
  }
}

TEST_P(BitStringBoundary, AppendUnalignedAcrossSeams) {
  const std::size_t n = GetParam();
  Rng rng(n * 17 + 29);
  for (const std::size_t head_len : {std::size_t{0}, std::size_t{1},
                                     std::size_t{63}, std::size_t{64},
                                     std::size_t{65}}) {
    std::string text;
    BitString head;
    for (std::size_t i = 0; i < head_len; ++i) {
      const bool bit = rng.chance(0.5);
      head.push_back(bit);
      text.push_back(bit ? '1' : '0');
    }
    BitString tail;
    for (std::size_t i = 0; i < n; ++i) {
      const bool bit = rng.chance(0.5);
      tail.push_back(bit);
      text.push_back(bit ? '1' : '0');
    }
    head.append(tail);
    EXPECT_EQ(head.to_string(), text) << "head_len=" << head_len;
  }
}

INSTANTIATE_TEST_SUITE_P(WordSeams, BitStringBoundary,
                         ::testing::Values(0, 1, 63, 64, 65, 127, 128, 129,
                                           191, 192, 193));

TEST(BitStringBoundary, SelfAppendCrossesInlineToHeap) {
  // kInlineBits = 128: self-append at 65 bits lands on 130 > 128, forcing
  // the small-buffer -> heap transition while `other` aliases `this`.
  for (const std::size_t n : {1u, 63u, 64u, 65u, 127u, 128u, 129u}) {
    Rng rng(n);
    std::string text;
    BitString bits;
    for (std::size_t i = 0; i < n; ++i) {
      const bool bit = rng.chance(0.5);
      bits.push_back(bit);
      text.push_back(bit ? '1' : '0');
    }
    bits.append(bits);
    EXPECT_EQ(bits.size(), 2 * n);
    EXPECT_EQ(bits.to_string(), text + text) << "n=" << n;
  }
}

TEST(BitStringBoundary, CommonPrefixAroundWordSeams) {
  for (const std::size_t n : {63u, 64u, 65u, 127u, 128u, 129u}) {
    const BitString ones(n, true);
    BitString other = ones;
    EXPECT_EQ(ones.common_prefix_length(other), n);
    other.set(n - 1, false);
    EXPECT_EQ(ones.common_prefix_length(other), n - 1);
    other = ones;
    other.push_back(true);
    EXPECT_EQ(ones.common_prefix_length(other), n);
  }
}

}  // namespace
}  // namespace agentloc::util
