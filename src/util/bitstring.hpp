#pragma once

#include <compare>
#include <cstdint>
#include <initializer_list>
#include <iosfwd>
#include <string>
#include <string_view>

namespace agentloc::util {

/// A sequence of bits with value semantics.
///
/// `BitString` is the foundation of the hash mechanism: hash-tree edge
/// *labels*, leaf *hyper-labels*, and the binary representation of agent ids
/// are all bit strings. Bits are indexed from 0 (most significant /
/// left-most), matching the paper's "prefix of the binary representation"
/// orientation: bit 0 of an agent id is the first bit consulted by the hash
/// tree.
///
/// The representation is packed 64-bit words (bit i lives in word i/64 at
/// bit position 63 - i%64) with a small-buffer optimization: strings of up
/// to `kInlineBits` bits — every edge label, every 64-bit agent id, and all
/// but pathological hyper-labels — live inline in the object and never touch
/// the heap. All kernels (append, substr, prefix, comparison) operate
/// word-at-a-time.
///
/// Invariant: the unused low bits of the last word are always zero, so
/// equality can compare whole words.
class BitString {
 public:
  /// Bits held inline before the representation spills to the heap.
  static constexpr std::size_t kInlineWords = 2;
  static constexpr std::size_t kInlineBits = kInlineWords * 64;

  /// The empty bit string.
  BitString() noexcept : size_(0), cap_words_(kInlineWords) {}

  /// A bit string of `count` copies of `bit`.
  BitString(std::size_t count, bool bit);

  /// Construct from explicit bits, most significant first: `{1,0,1}` is "101".
  BitString(std::initializer_list<bool> bits);

  BitString(const BitString& other);
  BitString(BitString&& other) noexcept;
  BitString& operator=(const BitString& other);
  BitString& operator=(BitString&& other) noexcept;
  ~BitString() { release(); }

  /// Parse from text consisting of '0' and '1' characters only.
  /// Throws `std::invalid_argument` on any other character.
  static BitString parse(std::string_view text);

  /// The `width` most-significant bits of `value`, left-padded with zeros so
  /// that e.g. `from_uint(5, 8)` is "00000101" — the natural binary
  /// representation used when hashing an agent id.
  /// Throws `std::invalid_argument` if `width > 64`.
  static BitString from_uint(std::uint64_t value, std::size_t width);

  /// Rebuild from MSB-first packed bytes (the wire format of
  /// `ByteWriter::write_bits`): bit i of the string is bit 7 - i%8 of byte
  /// i/8. Trailing bits of the last byte beyond `bit_count` are ignored.
  static BitString from_packed_msb(const std::uint8_t* data,
                                   std::size_t bit_count);

  /// Write the string as MSB-first packed bytes into `out`, which must have
  /// room for `(size() + 7) / 8` bytes.
  void pack_msb(std::uint8_t* out) const noexcept;

  std::size_t size() const noexcept { return size_; }
  bool empty() const noexcept { return size_ == 0; }

  /// Bit at position `i` (0 = left-most). Throws `std::out_of_range`.
  bool at(std::size_t i) const;

  /// Unchecked access; precondition `i < size()`.
  bool operator[](std::size_t i) const noexcept { return get_unchecked(i); }

  /// First bit. In a hash-tree label this is the *valid bit* — the only bit
  /// that participates in the agent→IAgent mapping. Throws on empty.
  bool front() const { return at(0); }

  /// Last bit. Throws on empty.
  bool back() const { return at(size_ - 1); }

  void clear() noexcept { size_ = 0; }

  /// Append a single bit.
  void push_back(bool bit);

  /// Remove the last bit. Throws `std::logic_error` on empty.
  void pop_back();

  /// Set bit `i` to `bit`. Throws `std::out_of_range`.
  void set(std::size_t i, bool bit);

  /// Append all of `other`'s bits (concatenation of labels into
  /// hyper-labels). Self-append is supported. Word-at-a-time: the source is
  /// shifted into place 64 bits per step.
  void append(const BitString& other);

  /// The `count` left-most bits. Throws `std::out_of_range` if
  /// `count > size()`.
  BitString prefix(std::size_t count) const;

  /// Bits `[begin, begin+count)`. Throws `std::out_of_range` when the range
  /// does not fit.
  BitString substr(std::size_t begin, std::size_t count) const;

  /// Bits `[begin, size())`.
  BitString suffix_from(std::size_t begin) const;

  /// Length of the longest common prefix with `other`.
  std::size_t common_prefix_length(const BitString& other) const noexcept;

  /// "0"/"1" text, e.g. "0110". Empty string renders as "".
  std::string to_string() const;

  friend bool operator==(const BitString& a, const BitString& b) noexcept;

  /// Lexicographic order (shorter prefix sorts first).
  friend std::strong_ordering operator<=>(const BitString& a,
                                          const BitString& b) noexcept;

 private:
  /// Number of 64-bit words backing the string.
  std::size_t word_count() const noexcept { return (size_ + 63) >> 6; }
  bool is_inline() const noexcept { return cap_words_ <= kInlineWords; }
  std::uint64_t* words_ptr() noexcept { return is_inline() ? sbo_ : heap_; }
  const std::uint64_t* words_ptr() const noexcept {
    return is_inline() ? sbo_ : heap_;
  }

  bool get_unchecked(std::size_t i) const noexcept {
    return (words_ptr()[i >> 6] >> (63 - (i & 63))) & 1u;
  }
  void set_unchecked(std::size_t i, bool bit) noexcept {
    const std::uint64_t mask = std::uint64_t{1} << (63 - (i & 63));
    if (bit) {
      words_ptr()[i >> 6] |= mask;
    } else {
      words_ptr()[i >> 6] &= ~mask;
    }
  }

  /// Grow storage to hold at least `words` words, preserving content.
  void ensure_capacity(std::size_t words);

  /// Zero the unused low bits of the last word (no-op when word-aligned).
  void clear_tail() noexcept {
    if (size_ & 63) {
      words_ptr()[word_count() - 1] &= ~std::uint64_t{0} << (64 - (size_ & 63));
    }
  }

  void release() noexcept {
    if (!is_inline()) delete[] heap_;
  }

  std::size_t size_;       ///< bits
  std::size_t cap_words_;  ///< capacity; > kInlineWords means heap storage
  union {
    std::uint64_t sbo_[kInlineWords];
    std::uint64_t* heap_;
  };
};

std::ostream& operator<<(std::ostream& os, const BitString& bits);

}  // namespace agentloc::util
