#include "util/bitstring.hpp"

#include <algorithm>
#include <bit>
#include <cstring>
#include <ostream>
#include <stdexcept>

namespace agentloc::util {

void BitString::ensure_capacity(std::size_t words) {
  if (words <= cap_words_) return;
  std::size_t new_cap = cap_words_ * 2;
  if (new_cap < words) new_cap = words;
  auto* fresh = new std::uint64_t[new_cap];
  std::memcpy(fresh, words_ptr(), word_count() * sizeof(std::uint64_t));
  release();
  heap_ = fresh;
  cap_words_ = new_cap;
}

BitString::BitString(const BitString& other)
    : size_(other.size_), cap_words_(kInlineWords) {
  const std::size_t wc = other.word_count();
  if (wc > kInlineWords) {
    heap_ = new std::uint64_t[wc];
    cap_words_ = wc;
  }
  std::memcpy(words_ptr(), other.words_ptr(), wc * sizeof(std::uint64_t));
}

BitString::BitString(BitString&& other) noexcept
    : size_(other.size_), cap_words_(other.cap_words_) {
  if (other.is_inline()) {
    std::memcpy(sbo_, other.sbo_, other.word_count() * sizeof(std::uint64_t));
  } else {
    heap_ = other.heap_;
  }
  other.size_ = 0;
  other.cap_words_ = kInlineWords;
}

BitString& BitString::operator=(const BitString& other) {
  if (this == &other) return *this;
  const std::size_t wc = other.word_count();
  ensure_capacity(wc);
  std::memcpy(words_ptr(), other.words_ptr(), wc * sizeof(std::uint64_t));
  size_ = other.size_;
  return *this;
}

BitString& BitString::operator=(BitString&& other) noexcept {
  if (this == &other) return *this;
  release();
  size_ = other.size_;
  cap_words_ = other.cap_words_;
  if (other.is_inline()) {
    std::memcpy(sbo_, other.sbo_, other.word_count() * sizeof(std::uint64_t));
    cap_words_ = kInlineWords;
  } else {
    heap_ = other.heap_;
  }
  other.size_ = 0;
  other.cap_words_ = kInlineWords;
  return *this;
}

BitString::BitString(std::size_t count, bool bit)
    : size_(0), cap_words_(kInlineWords) {
  const std::size_t wc = (count + 63) >> 6;
  ensure_capacity(wc);
  std::uint64_t* w = words_ptr();
  const std::uint64_t fill = bit ? ~std::uint64_t{0} : 0;
  for (std::size_t i = 0; i < wc; ++i) w[i] = fill;
  size_ = count;
  clear_tail();
}

BitString::BitString(std::initializer_list<bool> bits)
    : size_(0), cap_words_(kInlineWords) {
  ensure_capacity((bits.size() + 63) >> 6);
  for (bool b : bits) push_back(b);
}

BitString BitString::parse(std::string_view text) {
  BitString out;
  out.ensure_capacity((text.size() + 63) >> 6);
  for (char c : text) {
    if (c == '0') {
      out.push_back(false);
    } else if (c == '1') {
      out.push_back(true);
    } else {
      throw std::invalid_argument("BitString::parse: invalid character '" +
                                  std::string(1, c) + "'");
    }
  }
  return out;
}

BitString BitString::from_uint(std::uint64_t value, std::size_t width) {
  if (width > 64) {
    throw std::invalid_argument("BitString::from_uint: width > 64");
  }
  BitString out;
  if (width == 0) return out;
  out.sbo_[0] = width == 64
                    ? value
                    : (value & ((std::uint64_t{1} << width) - 1))
                          << (64 - width);
  out.size_ = width;
  return out;
}

BitString BitString::from_packed_msb(const std::uint8_t* data,
                                     std::size_t bit_count) {
  BitString out;
  if (bit_count == 0) return out;
  const std::size_t wc = (bit_count + 63) >> 6;
  out.ensure_capacity(wc);
  std::uint64_t* w = out.words_ptr();
  const std::size_t byte_count = (bit_count + 7) / 8;
  for (std::size_t i = 0; i < wc; ++i) {
    const std::size_t base = i * 8;
    const std::size_t n = std::min<std::size_t>(8, byte_count - base);
    std::uint64_t word = 0;
    for (std::size_t j = 0; j < n; ++j) {
      word |= static_cast<std::uint64_t>(data[base + j]) << (56 - 8 * j);
    }
    w[i] = word;
  }
  out.size_ = bit_count;
  out.clear_tail();
  return out;
}

void BitString::pack_msb(std::uint8_t* out) const noexcept {
  const std::size_t byte_count = (size_ + 7) / 8;
  const std::uint64_t* w = words_ptr();
  for (std::size_t j = 0; j < byte_count; ++j) {
    out[j] = static_cast<std::uint8_t>(w[j >> 3] >> (56 - 8 * (j & 7)));
  }
}

bool BitString::at(std::size_t i) const {
  if (i >= size_) throw std::out_of_range("BitString::at");
  return get_unchecked(i);
}

void BitString::push_back(bool bit) {
  if ((size_ & 63) == 0) {
    ensure_capacity((size_ >> 6) + 1);
    words_ptr()[size_ >> 6] = 0;
  }
  ++size_;
  set_unchecked(size_ - 1, bit);
}

void BitString::pop_back() {
  if (size_ == 0) throw std::logic_error("BitString::pop_back on empty");
  set_unchecked(size_ - 1, false);
  --size_;
}

void BitString::set(std::size_t i, bool bit) {
  if (i >= size_) throw std::out_of_range("BitString::set");
  set_unchecked(i, bit);
}

void BitString::append(const BitString& other) {
  if (other.size_ == 0) return;
  if (this == &other) {
    // Self-append: a growth reallocation would invalidate the source.
    const BitString snapshot(other);
    append(snapshot);
    return;
  }
  const std::size_t new_size = size_ + other.size_;
  const std::size_t total_words = (new_size + 63) >> 6;
  ensure_capacity(total_words);
  std::uint64_t* w = words_ptr();
  const std::uint64_t* src = other.words_ptr();
  const std::size_t src_words = other.word_count();
  const std::size_t base = size_ >> 6;
  const unsigned off = size_ & 63;
  if (off == 0) {
    std::memcpy(w + base, src, src_words * sizeof(std::uint64_t));
  } else {
    // Each source word contributes its high `64 - off` bits to the current
    // tail word and its low `off` bits to the next.
    for (std::size_t i = 0; i < src_words; ++i) {
      w[base + i] |= src[i] >> off;
      if (base + i + 1 < total_words) {
        w[base + i + 1] = src[i] << (64 - off);
      }
    }
  }
  size_ = new_size;
}

BitString BitString::prefix(std::size_t count) const {
  if (count > size_) throw std::out_of_range("BitString::prefix");
  BitString out;
  if (count == 0) return out;
  const std::size_t wc = (count + 63) >> 6;
  out.ensure_capacity(wc);
  std::memcpy(out.words_ptr(), words_ptr(), wc * sizeof(std::uint64_t));
  out.size_ = count;
  out.clear_tail();
  return out;
}

BitString BitString::substr(std::size_t begin, std::size_t count) const {
  if (begin > size_ || count > size_ - begin) {
    throw std::out_of_range("BitString::substr");
  }
  BitString out;
  if (count == 0) return out;
  const std::size_t wc = (count + 63) >> 6;
  out.ensure_capacity(wc);
  std::uint64_t* dst = out.words_ptr();
  const std::uint64_t* src = words_ptr();
  const std::size_t base = begin >> 6;
  const unsigned off = begin & 63;
  if (off == 0) {
    std::memcpy(dst, src + base, wc * sizeof(std::uint64_t));
  } else {
    const std::size_t src_wc = word_count();
    for (std::size_t j = 0; j < wc; ++j) {
      const std::uint64_t hi = src[base + j] << off;
      const std::uint64_t lo =
          base + j + 1 < src_wc ? src[base + j + 1] >> (64 - off) : 0;
      dst[j] = hi | lo;
    }
  }
  out.size_ = count;
  out.clear_tail();
  return out;
}

BitString BitString::suffix_from(std::size_t begin) const {
  if (begin > size_) throw std::out_of_range("BitString::suffix_from");
  return substr(begin, size_ - begin);
}

std::size_t BitString::common_prefix_length(
    const BitString& other) const noexcept {
  const std::size_t limit = size_ < other.size_ ? size_ : other.size_;
  const std::uint64_t* a = words_ptr();
  const std::uint64_t* b = other.words_ptr();
  for (std::size_t i = 0; i < limit; i += 64) {
    const std::uint64_t diff = a[i >> 6] ^ b[i >> 6];
    if (diff != 0) {
      const std::size_t p =
          i + static_cast<std::size_t>(std::countl_zero(diff));
      return p < limit ? p : limit;
    }
  }
  return limit;
}

std::string BitString::to_string() const {
  std::string out;
  out.reserve(size_);
  for (std::size_t i = 0; i < size_; ++i) {
    out.push_back(get_unchecked(i) ? '1' : '0');
  }
  return out;
}

bool operator==(const BitString& a, const BitString& b) noexcept {
  if (a.size_ != b.size_) return false;
  return std::memcmp(a.words_ptr(), b.words_ptr(),
                     a.word_count() * sizeof(std::uint64_t)) == 0;
}

std::strong_ordering operator<=>(const BitString& a,
                                 const BitString& b) noexcept {
  const std::size_t common = a.common_prefix_length(b);
  if (common == a.size_ && common == b.size_) {
    return std::strong_ordering::equal;
  }
  if (common == a.size_) return std::strong_ordering::less;
  if (common == b.size_) return std::strong_ordering::greater;
  return a.get_unchecked(common) ? std::strong_ordering::greater
                                 : std::strong_ordering::less;
}

std::ostream& operator<<(std::ostream& os, const BitString& bits) {
  return os << bits.to_string();
}

}  // namespace agentloc::util
