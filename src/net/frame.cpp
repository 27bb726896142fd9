#include "net/frame.hpp"

#include <cstring>

namespace agentloc::net {

OpenFrame begin_frame(util::ByteWriter& writer, FrameType type,
                      std::uint64_t correlation, std::uint8_t flags) {
  OpenFrame open;
  open.frame_start = writer.size();
  writer.write_u8(kFrameMagic);
  writer.write_u8(static_cast<std::uint8_t>(type));
  writer.write_u8(flags);
  writer.write_varint(correlation);
  open.length_slot = writer.size();
  writer.write_varint4(0);  // patched by end_frame once the payload is down
  open.payload_start = writer.size();
  return open;
}

std::size_t end_frame(util::ByteWriter& writer, const OpenFrame& open) {
  const std::size_t payload = writer.size() - open.payload_start;
  writer.patch_varint4(open.length_slot,
                       static_cast<std::uint32_t>(payload));
  return writer.size() - open.frame_start;
}

FrameDecoder::FrameDecoder(util::BufferPool& pool)
    : pool_(&pool), buffer_(pool.acquire()) {}

FrameDecoder::~FrameDecoder() { release_buffer(); }

FrameDecoder::FrameDecoder(FrameDecoder&& other) noexcept
    : pool_(other.pool_),
      buffer_(std::move(other.buffer_)),
      len_(other.len_),
      pos_(other.pos_),
      failed_(other.failed_),
      error_(std::move(other.error_)) {
  other.pool_ = nullptr;
  other.len_ = 0;
  other.pos_ = 0;
}

FrameDecoder& FrameDecoder::operator=(FrameDecoder&& other) noexcept {
  if (this != &other) {
    release_buffer();
    pool_ = other.pool_;
    buffer_ = std::move(other.buffer_);
    len_ = other.len_;
    pos_ = other.pos_;
    failed_ = other.failed_;
    error_ = std::move(other.error_);
    other.pool_ = nullptr;
    other.len_ = 0;
    other.pos_ = 0;
  }
  return *this;
}

void FrameDecoder::release_buffer() noexcept {
  if (pool_ != nullptr && buffer_.capacity() > 0) {
    pool_->release(std::move(buffer_));
  }
  len_ = 0;
  pos_ = 0;
}

void FrameDecoder::compact() noexcept {
  if (pos_ == 0) return;
  const std::size_t unparsed = len_ - pos_;
  if (unparsed > 0) {
    std::memmove(buffer_.data(), buffer_.data() + pos_, unparsed);
  }
  len_ = unparsed;
  pos_ = 0;
}

std::uint8_t* FrameDecoder::writable(std::size_t min_bytes) {
  compact();
  if (buffer_.size() < len_ + min_bytes) {
    buffer_.resize(len_ + min_bytes);
  }
  return buffer_.data() + len_;
}

void FrameDecoder::commit(std::size_t bytes) noexcept {
  len_ += bytes;
  if (len_ > buffer_.size()) len_ = buffer_.size();  // defensive clamp
}

void FrameDecoder::feed(const std::uint8_t* data, std::size_t size) {
  if (size == 0) return;
  std::memcpy(writable(size), data, size);
  commit(size);
}

FrameDecoder::Status FrameDecoder::fail(const char* message) {
  failed_ = true;
  error_ = message;
  return Status::kError;
}

FrameDecoder::Status FrameDecoder::next(FrameView& out) {
  if (failed_) return Status::kError;
  const std::uint8_t* data = buffer_.data();
  std::size_t at = pos_;

  // Magic is checked the moment the first byte arrives: a desynchronized
  // stream fails at the frame boundary, not after more bytes trickle in.
  if (len_ == at) return Status::kNeedMore;
  if (data[at] != kFrameMagic) {
    return fail("frame: bad magic byte (stream desynchronized or not ours)");
  }
  if (len_ - at < 3) return Status::kNeedMore;
  const std::uint8_t raw_type = data[at + 1];
  const std::uint8_t flags = data[at + 2];
  at += 3;

  // Correlation varint: LEB128, at most 10 bytes for a 64-bit value.
  std::uint64_t correlation = 0;
  int shift = 0;
  for (;;) {
    if (at == len_) return Status::kNeedMore;
    const std::uint8_t byte = data[at++];
    if (shift >= 64 || (shift == 63 && (byte & 0x7e) != 0)) {
      return fail("frame: correlation varint overflows 64 bits");
    }
    correlation |= static_cast<std::uint64_t>(byte & 0x7f) << shift;
    if ((byte & 0x80) == 0) break;
    shift += 7;
  }

  // Payload length varint. The encoder always writes the padded 4-byte
  // form, but any LEB128 encoding of a value below the cap is accepted.
  std::uint64_t length = 0;
  shift = 0;
  for (;;) {
    if (at == len_) return Status::kNeedMore;
    const std::uint8_t byte = data[at++];
    if (shift >= 35) {
      return fail("frame: payload length varint overflows 32 bits");
    }
    length |= static_cast<std::uint64_t>(byte & 0x7f) << shift;
    if ((byte & 0x80) == 0) break;
    shift += 7;
  }
  if (length > kMaxFramePayload) {
    return fail("frame: payload length exceeds the frame cap");
  }

  if (len_ - at < length) return Status::kNeedMore;

  out.type = static_cast<FrameType>(raw_type);
  out.flags = flags;
  out.correlation = correlation;
  out.payload = data + at;
  out.payload_size = static_cast<std::size_t>(length);
  pos_ = at + static_cast<std::size_t>(length);
  if (pos_ == len_) {  // fully drained: rewind so the buffer never creeps
    pos_ = 0;
    len_ = 0;
  }
  return Status::kFrame;
}

}  // namespace agentloc::net
