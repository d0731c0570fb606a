// TSP1: the length-prefixed binary frame protocol of the query daemon.
//
// Every frame is a fixed 16-byte little-endian header followed by the
// payload:
//
//   offset  size  field
//   0       4     magic        0x31505354 ("TSP1" as ASCII bytes on the wire)
//   4       1     type         FrameType below
//   5       1     flags        bit 0: payload begins with a u64 LE deadline
//                              (milliseconds, relative to receipt)
//                              bit 1: payload carries a 24-byte trace prefix
//                              (trace id hi, trace id lo, span id — u64 LE
//                              each) after the deadline prefix, if any
//   6       2     reserved     must be 0
//   8       4     payload_len  bytes following the header (caps enforced)
//   12      4     payload_crc  CRC-32 (storage/serde.h Crc32) of the payload
//
// A kQuery payload is one query_lang/DDL statement in UTF-8; kResult carries
// the statement's output verbatim; kError a one-line error string prefixed
// with the canonical status-code name; kRejected means admission control
// refused the request before execution (back off and retry). kPing/kPong are
// liveness no-ops that the leader answers without admission.
//
// The decoder is incremental and hostile-input-safe: any malformed header
// (bad magic, unknown type, nonzero reserved bits, oversized payload) or a
// CRC mismatch poisons the decoder with an error Status — the connection is
// then torn down, because after framing is lost resynchronization is
// guesswork. Truncated frames are simply incomplete, never errors.
#ifndef TEMPSPEC_NET_FRAME_H_
#define TEMPSPEC_NET_FRAME_H_

#include <cstdint>
#include <optional>
#include <string>

#include "util/result.h"

namespace tempspec {

constexpr uint32_t kFrameMagic = 0x31505354;  // "TSP1" little-endian
constexpr size_t kFrameHeaderBytes = 16;
constexpr uint8_t kFrameFlagDeadline = 0x01;
constexpr uint8_t kFrameFlagTrace = 0x02;
/// \brief Wire size of the trace prefix (trace_hi, trace_lo, span_id).
constexpr size_t kFrameTracePrefixBytes = 24;
/// \brief The largest payload the 32-bit payload_len field can describe.
/// Reply decoders use it as their cap: a reply is as long as the
/// statement's output, and only the server caps what it decodes (requests).
constexpr size_t kFrameMaxPayloadBytes = 0xFFFFFFFFu;

enum class FrameType : uint8_t {
  kQuery = 1,
  kResult = 2,
  kError = 3,
  kPing = 4,
  kPong = 5,
  kRejected = 6,
};

/// \brief True for the values EncodeFrame/FrameDecoder accept.
bool IsValidFrameType(uint8_t type);

/// \brief One decoded (or to-be-encoded) frame. `deadline_millis` is
/// meaningful only when flags has kFrameFlagDeadline, the trace triple only
/// when flags has kFrameFlagTrace; both prefixes are split out of `payload`
/// by the decoder and re-attached by the encoder (deadline first).
struct Frame {
  FrameType type = FrameType::kQuery;
  uint8_t flags = 0;
  uint64_t deadline_millis = 0;
  uint64_t trace_hi = 0;
  uint64_t trace_lo = 0;
  uint64_t span_id = 0;
  std::string payload;

  bool has_deadline() const { return (flags & kFrameFlagDeadline) != 0; }
  bool has_trace() const { return (flags & kFrameFlagTrace) != 0; }
};

/// \brief Appends the wire form of `frame` to `out` (header, optional
/// deadline prefix, payload; CRC computed over both).
void EncodeFrame(const Frame& frame, std::string* out);

/// \brief Incremental frame decoder for one connection's byte stream. The
/// default cap is the server's default request limit
/// (ServerOptions::max_frame_payload_bytes); reply decoders pass
/// kFrameMaxPayloadBytes.
class FrameDecoder {
 public:
  explicit FrameDecoder(size_t max_payload_bytes = 1 * 1024 * 1024)
      : max_payload_bytes_(max_payload_bytes) {}

  /// \brief Appends raw bytes from the socket.
  void Feed(const char* data, size_t len) { buffer_.append(data, len); }

  /// \brief Extracts the next complete frame: a frame when one is fully
  /// buffered, nullopt when more bytes are needed, or an error Status on a
  /// malformed stream (the decoder stays poisoned; close the connection).
  Result<std::optional<Frame>> Next();

  /// \brief Bytes buffered but not yet consumed by Next().
  size_t buffered_bytes() const { return buffer_.size() - offset_; }

 private:
  size_t max_payload_bytes_;
  std::string buffer_;
  size_t offset_ = 0;  // consumed prefix of buffer_
  Status poisoned_ = Status::OK();
};

}  // namespace tempspec

#endif  // TEMPSPEC_NET_FRAME_H_
