#include "net/frame.h"

#include <cstring>

#include "storage/serde.h"

namespace tempspec {

namespace {

void PutU16(std::string* out, uint16_t v) {
  out->push_back(static_cast<char>(v & 0xff));
  out->push_back(static_cast<char>((v >> 8) & 0xff));
}

void PutU32(std::string* out, uint32_t v) {
  for (int shift = 0; shift < 32; shift += 8) {
    out->push_back(static_cast<char>((v >> shift) & 0xff));
  }
}

void PutU64(std::string* out, uint64_t v) {
  for (int shift = 0; shift < 64; shift += 8) {
    out->push_back(static_cast<char>((v >> shift) & 0xff));
  }
}

uint16_t GetU16(const char* p) {
  const auto* b = reinterpret_cast<const unsigned char*>(p);
  return static_cast<uint16_t>(b[0] | (b[1] << 8));
}

uint32_t GetU32(const char* p) {
  const auto* b = reinterpret_cast<const unsigned char*>(p);
  return static_cast<uint32_t>(b[0]) | (static_cast<uint32_t>(b[1]) << 8) |
         (static_cast<uint32_t>(b[2]) << 16) |
         (static_cast<uint32_t>(b[3]) << 24);
}

uint64_t GetU64(const char* p) {
  uint64_t v = 0;
  const auto* b = reinterpret_cast<const unsigned char*>(p);
  for (int i = 7; i >= 0; --i) v = (v << 8) | b[i];
  return v;
}

}  // namespace

bool IsValidFrameType(uint8_t type) {
  return type >= static_cast<uint8_t>(FrameType::kQuery) &&
         type <= static_cast<uint8_t>(FrameType::kRejected);
}

void EncodeFrame(const Frame& frame, std::string* out) {
  const size_t payload_len = (frame.has_deadline() ? 8 : 0) +
                             (frame.has_trace() ? kFrameTracePrefixBytes : 0) +
                             frame.payload.size();
  out->reserve(out->size() + kFrameHeaderBytes + payload_len);
  PutU32(out, kFrameMagic);
  out->push_back(static_cast<char>(frame.type));
  out->push_back(static_cast<char>(frame.flags));
  PutU16(out, 0);  // reserved
  PutU32(out, static_cast<uint32_t>(payload_len));
  const size_t crc_at = out->size();
  PutU32(out, 0);  // payload_crc, patched once the payload is in place
  if (frame.has_deadline()) PutU64(out, frame.deadline_millis);
  if (frame.has_trace()) {
    PutU64(out, frame.trace_hi);
    PutU64(out, frame.trace_lo);
    PutU64(out, frame.span_id);
  }
  *out += frame.payload;
  const uint32_t crc = Crc32(std::string_view(*out).substr(crc_at + 4));
  for (int i = 0; i < 4; ++i) {
    (*out)[crc_at + i] = static_cast<char>((crc >> (8 * i)) & 0xff);
  }
}

Result<std::optional<Frame>> FrameDecoder::Next() {
  if (!poisoned_.ok()) return poisoned_;
  // Compact once the consumed prefix dominates, amortized O(1) per byte.
  if (offset_ > 4096 && offset_ * 2 > buffer_.size()) {
    buffer_.erase(0, offset_);
    offset_ = 0;
  }
  if (buffer_.size() - offset_ < kFrameHeaderBytes) {
    return std::optional<Frame>(std::nullopt);
  }
  const char* header = buffer_.data() + offset_;
  const uint32_t magic = GetU32(header);
  if (magic != kFrameMagic) {
    poisoned_ = Status::InvalidArgument("bad frame magic 0x",
                                        std::hex, magic);
    return poisoned_;
  }
  const uint8_t type = static_cast<uint8_t>(header[4]);
  const uint8_t flags = static_cast<uint8_t>(header[5]);
  const uint16_t reserved = GetU16(header + 6);
  const uint32_t payload_len = GetU32(header + 8);
  const uint32_t payload_crc = GetU32(header + 12);
  if (!IsValidFrameType(type)) {
    poisoned_ = Status::InvalidArgument("unknown frame type ",
                                        static_cast<int>(type));
    return poisoned_;
  }
  if ((flags & ~(kFrameFlagDeadline | kFrameFlagTrace)) != 0) {
    poisoned_ = Status::InvalidArgument("unknown frame flags ",
                                        static_cast<int>(flags));
    return poisoned_;
  }
  if (reserved != 0) {
    poisoned_ = Status::InvalidArgument("nonzero reserved frame bits");
    return poisoned_;
  }
  if (payload_len > max_payload_bytes_) {
    poisoned_ = Status::InvalidArgument("frame payload of ", payload_len,
                                        " bytes exceeds the ",
                                        max_payload_bytes_, "-byte cap");
    return poisoned_;
  }
  const bool has_deadline = (flags & kFrameFlagDeadline) != 0;
  const bool has_trace = (flags & kFrameFlagTrace) != 0;
  const size_t prefix_len =
      (has_deadline ? 8 : 0) + (has_trace ? kFrameTracePrefixBytes : 0);
  if (payload_len < prefix_len) {
    poisoned_ = Status::InvalidArgument(
        "flags 0x", std::hex, static_cast<int>(flags), " need a ", std::dec,
        prefix_len, "-byte prefix but the payload is only ", payload_len,
        " bytes");
    return poisoned_;
  }
  if (buffer_.size() - offset_ < kFrameHeaderBytes + payload_len) {
    return std::optional<Frame>(std::nullopt);  // truncated so far
  }
  const char* payload = header + kFrameHeaderBytes;
  if (Crc32(std::string_view(payload, payload_len)) != payload_crc) {
    poisoned_ = Status::Corruption("frame payload CRC mismatch");
    return poisoned_;
  }

  Frame frame;
  frame.type = static_cast<FrameType>(type);
  frame.flags = flags;
  const char* body = payload;
  if (has_deadline) {
    frame.deadline_millis = GetU64(body);
    body += 8;
  }
  if (has_trace) {
    frame.trace_hi = GetU64(body);
    frame.trace_lo = GetU64(body + 8);
    frame.span_id = GetU64(body + 16);
    body += kFrameTracePrefixBytes;
  }
  frame.payload.assign(body, payload_len - prefix_len);
  offset_ += kFrameHeaderBytes + payload_len;
  return std::optional<Frame>(std::move(frame));
}

}  // namespace tempspec
