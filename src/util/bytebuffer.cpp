#include "util/bytebuffer.hpp"

#include <cstring>
#include <stdexcept>

namespace agentloc::util {

void ByteWriter::write_u8(std::uint8_t value) { bytes_.push_back(value); }

void ByteWriter::write_u32(std::uint32_t value) {
  for (int shift = 0; shift < 32; shift += 8) {
    bytes_.push_back(static_cast<std::uint8_t>(value >> shift));
  }
}

void ByteWriter::write_varint(std::uint64_t value) {
  while (value >= 0x80) {
    bytes_.push_back(static_cast<std::uint8_t>(value) | 0x80);
    value >>= 7;
  }
  bytes_.push_back(static_cast<std::uint8_t>(value));
}

void ByteWriter::write_varint4(std::uint32_t value) {
  const std::size_t at = bytes_.size();
  bytes_.resize(at + 4);
  patch_varint4(at, value);
}

void ByteWriter::patch_varint4(std::size_t offset, std::uint32_t value) {
  if (offset + 4 > bytes_.size()) {
    throw std::out_of_range("ByteWriter::patch_varint4: offset out of range");
  }
  if (value >= (1u << 28)) {
    throw std::length_error("ByteWriter::patch_varint4: value needs >28 bits");
  }
  bytes_[offset + 0] = static_cast<std::uint8_t>(value & 0x7f) | 0x80;
  bytes_[offset + 1] = static_cast<std::uint8_t>((value >> 7) & 0x7f) | 0x80;
  bytes_[offset + 2] = static_cast<std::uint8_t>((value >> 14) & 0x7f) | 0x80;
  bytes_[offset + 3] = static_cast<std::uint8_t>(value >> 21);
}

void ByteWriter::write_string(std::string_view text) {
  write_varint(text.size());
  bytes_.insert(bytes_.end(), text.begin(), text.end());
}

void ByteWriter::write_bits(const BitString& bits) {
  write_varint(bits.size());
  const std::size_t byte_count = (bits.size() + 7) / 8;
  const std::size_t at = bytes_.size();
  bytes_.resize(at + byte_count);
  bits.pack_msb(bytes_.data() + at);
}

void ByteWriter::write_bytes(const std::uint8_t* data, std::size_t size) {
  bytes_.insert(bytes_.end(), data, data + size);
}

void ByteReader::require(std::size_t count) const {
  if (size_ - pos_ < count) {
    throw std::out_of_range("ByteReader: truncated input");
  }
}

std::uint8_t ByteReader::read_u8() {
  require(1);
  return data_[pos_++];
}

std::uint32_t ByteReader::read_u32() {
  require(4);
  std::uint32_t value = 0;
  for (int shift = 0; shift < 32; shift += 8) {
    value |= static_cast<std::uint32_t>(data_[pos_++]) << shift;
  }
  return value;
}

std::uint64_t ByteReader::read_varint() {
  std::uint64_t value = 0;
  int shift = 0;
  for (;;) {
    require(1);
    const std::uint8_t byte = data_[pos_++];
    if (shift >= 64 || (shift == 63 && (byte & 0x7e) != 0)) {
      throw std::invalid_argument("ByteReader: varint overflow");
    }
    value |= static_cast<std::uint64_t>(byte & 0x7f) << shift;
    if ((byte & 0x80) == 0) return value;
    shift += 7;
  }
}

std::string ByteReader::read_string() {
  const std::uint64_t size = read_varint();
  require(size);
  std::string out(reinterpret_cast<const char*>(data_ + pos_), size);
  pos_ += size;
  return out;
}

BitString ByteReader::read_bits() {
  const std::uint64_t count = read_varint();
  const std::size_t byte_count = (count + 7) / 8;
  require(byte_count);
  BitString out = BitString::from_packed_msb(data_ + pos_, count);
  pos_ += byte_count;
  return out;
}

}  // namespace agentloc::util
