#include "net/client.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <strings.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <random>

#include "net/socket.h"

namespace tempspec {

namespace {

// Opens a connected blocking TCP socket with the receive timeout applied, or
// -1. Shared by Connect and the short-lived Get connection.
int DialTcp(const std::string& host, uint16_t port, int recv_timeout_ms) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    return -1;
  }
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  if (recv_timeout_ms > 0) {
    timeval tv{};
    tv.tv_sec = recv_timeout_ms / 1000;
    tv.tv_usec = (recv_timeout_ms % 1000) * 1000;
    ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  }
  SetNoDelay(fd);
  return fd;
}

bool StartsWith(const std::string& text, const char* prefix) {
  return text.rfind(prefix, 0) == 0;
}

WireOutcome ClassifyHttpCode(int code) {
  if (code == 200) return WireOutcome::kOk;
  if (code == 503) return WireOutcome::kRejected;
  if (code == 504) return WireOutcome::kDeadline;
  if (code >= 400 && code < 500) return WireOutcome::kClientError;
  return WireOutcome::kServerError;
}

// kError payloads start with the canonical status-code name
// (StatusCodeToString) followed by ": <message>".
WireOutcome ClassifyErrorPayload(const std::string& payload) {
  if (StartsWith(payload, "Deadline exceeded")) return WireOutcome::kDeadline;
  if (StartsWith(payload, "Unavailable")) return WireOutcome::kRejected;
  if (StartsWith(payload, "Invalid argument") ||
      StartsWith(payload, "Constraint violation") ||
      StartsWith(payload, "Not found") ||
      StartsWith(payload, "Already exists") ||
      StartsWith(payload, "Out of range")) {
    return WireOutcome::kClientError;
  }
  return WireOutcome::kServerError;
}

}  // namespace

const char* WireOutcomeToString(WireOutcome outcome) {
  switch (outcome) {
    case WireOutcome::kOk:
      return "ok";
    case WireOutcome::kRejected:
      return "rejected";
    case WireOutcome::kDeadline:
      return "deadline";
    case WireOutcome::kClientError:
      return "client_error";
    case WireOutcome::kServerError:
      return "server_error";
    case WireOutcome::kTransport:
      return "transport";
  }
  return "unknown";
}

QueryClient::~QueryClient() { Close(); }

Status QueryClient::Connect(uint16_t port) {
  Close();
  if (port != 0) options_.port = port;
  if (options_.port == 0) {
    return Status::InvalidArgument("client: no port to connect to");
  }
  fd_ = DialTcp(options_.host, options_.port, options_.recv_timeout_ms);
  if (fd_ < 0) {
    return Status::Unavailable("client: connect to " + options_.host + ":" +
                               std::to_string(options_.port) + " failed: " +
                               std::strerror(errno));
  }
  return Status::OK();
}

void QueryClient::Close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
  buffered_.clear();
  decoder_ = FrameDecoder(kFrameMaxPayloadBytes);
}

bool QueryClient::SendAll(int fd, const std::string& bytes) {
  size_t sent = 0;
  while (sent < bytes.size()) {
    const ssize_t n =
        ::send(fd, bytes.data() + sent, bytes.size() - sent, MSG_NOSIGNAL);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      return false;
    }
    sent += static_cast<size_t>(n);
  }
  return true;
}

bool QueryClient::Fill(int fd, std::string* buffer) {
  char chunk[4096];
  while (true) {
    const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n > 0) {
      buffer->append(chunk, static_cast<size_t>(n));
      return true;
    }
    if (n < 0 && errno == EINTR) continue;
    return false;  // peer closed, receive timeout, or hard error
  }
}

bool QueryClient::ReadHttpResponse(int fd, std::string* buffer, int* code,
                                   std::string* body) {
  size_t header_end;
  while ((header_end = buffer->find("\r\n\r\n")) == std::string::npos) {
    if (!Fill(fd, buffer)) return false;
  }
  const std::string head = buffer->substr(0, header_end);
  if (std::sscanf(head.c_str(), "HTTP/1.1 %d", code) != 1 &&
      std::sscanf(head.c_str(), "HTTP/1.0 %d", code) != 1) {
    return false;
  }
  size_t content_length = 0;
  // Case-insensitive scan for the Content-Length header line.
  size_t line_start = 0;
  while (line_start < head.size()) {
    size_t line_end = head.find("\r\n", line_start);
    if (line_end == std::string::npos) line_end = head.size();
    const std::string line = head.substr(line_start, line_end - line_start);
    const char* kName = "content-length:";
    if (line.size() > std::strlen(kName) &&
        strncasecmp(line.c_str(), kName, std::strlen(kName)) == 0) {
      content_length = static_cast<size_t>(
          std::strtoull(line.c_str() + std::strlen(kName), nullptr, 10));
    }
    line_start = line_end + 2;
  }
  const size_t body_start = header_end + 4;
  while (buffer->size() < body_start + content_length) {
    if (!Fill(fd, buffer)) return false;
  }
  *body = buffer->substr(body_start, content_length);
  buffer->erase(0, body_start + content_length);
  return true;
}

void QueryClient::NextTrace() {
  // Uniqueness matters (the ids join client and server observations), wire
  // determinism does not: seed per thread from the OS entropy pool.
  thread_local std::mt19937_64 rng(
      std::mt19937_64(std::random_device{}()));
  trace_hi_ = rng();
  trace_lo_ = rng();
  if (trace_hi_ == 0 && trace_lo_ == 0) trace_lo_ = 1;
  span_id_ = rng();
  if (span_id_ == 0) span_id_ = 1;
  char buf[33];
  std::snprintf(buf, sizeof(buf), "%016llx%016llx",
                static_cast<unsigned long long>(trace_hi_),
                static_cast<unsigned long long>(trace_lo_));
  last_trace_id_.assign(buf, 32);
}

WireReply QueryClient::Execute(const std::string& statement,
                               uint64_t deadline_ms) {
  if (fd_ < 0) {
    const Status status = Connect();
    if (!status.ok()) {
      return WireReply{WireOutcome::kTransport, 0, status.ToString()};
    }
  }
  if (options_.propagate_trace) NextTrace();
  return options_.protocol == ClientProtocol::kHttp
             ? ExecuteHttp(statement, deadline_ms)
             : ExecuteFrame(statement, deadline_ms);
}

WireReply QueryClient::ExecuteHttp(const std::string& statement,
                                   uint64_t deadline_ms) {
  std::string request = "POST /query HTTP/1.1\r\nHost: " + options_.host +
                        "\r\nContent-Type: text/plain\r\nContent-Length: " +
                        std::to_string(statement.size()) + "\r\n";
  if (deadline_ms > 0) {
    request +=
        "X-Tempspec-Deadline-Ms: " + std::to_string(deadline_ms) + "\r\n";
  }
  if (options_.propagate_trace) {
    char span_hex[17];
    std::snprintf(span_hex, sizeof(span_hex), "%016llx",
                  static_cast<unsigned long long>(span_id_));
    request += "X-Tempspec-Trace: " + last_trace_id_ + "-" +
               std::string(span_hex) + "\r\n";
  }
  request += "\r\n" + statement;
  WireReply reply;
  if (!SendAll(fd_, request)) {
    Close();
    reply.body = "send failed";
    return reply;
  }
  int code = 0;
  std::string body;
  if (!ReadHttpResponse(fd_, &buffered_, &code, &body)) {
    Close();
    reply.body = "read failed";
    return reply;
  }
  reply.outcome = ClassifyHttpCode(code);
  reply.http_code = code;
  reply.body = std::move(body);
  return reply;
}

WireReply QueryClient::ExecuteFrame(const std::string& statement,
                                    uint64_t deadline_ms) {
  Frame frame;
  frame.type = FrameType::kQuery;
  frame.payload = statement;
  if (deadline_ms > 0) {
    frame.flags |= kFrameFlagDeadline;
    frame.deadline_millis = deadline_ms;
  }
  if (options_.propagate_trace) {
    frame.flags |= kFrameFlagTrace;
    frame.trace_hi = trace_hi_;
    frame.trace_lo = trace_lo_;
    frame.span_id = span_id_;
  }
  std::string wire;
  EncodeFrame(frame, &wire);
  WireReply reply;
  if (!SendAll(fd_, wire)) {
    Close();
    reply.body = "send failed";
    return reply;
  }
  while (true) {
    Result<std::optional<Frame>> next = decoder_.Next();
    if (!next.ok()) {
      Close();
      reply.body = "frame decode failed: " + next.status().ToString();
      return reply;
    }
    if (next.ValueOrDie().has_value()) {
      Frame& got = *next.ValueOrDie();
      switch (got.type) {
        case FrameType::kResult:
          reply.outcome = WireOutcome::kOk;
          break;
        case FrameType::kRejected:
          reply.outcome = WireOutcome::kRejected;
          break;
        case FrameType::kError:
          reply.outcome = ClassifyErrorPayload(got.payload);
          break;
        default:  // kPong etc. — not a valid reply to kQuery
          reply.outcome = WireOutcome::kServerError;
          break;
      }
      reply.body = std::move(got.payload);
      return reply;
    }
    std::string bytes;
    if (!Fill(fd_, &bytes)) {
      Close();
      reply.body = "read failed";
      return reply;
    }
    decoder_.Feed(bytes.data(), bytes.size());
  }
}

WireReply QueryClient::ExecuteRetrying(const std::string& statement,
                                       uint64_t deadline_ms, int max_attempts,
                                       int* rejections) {
  WireReply reply;
  for (int attempt = 0; attempt < max_attempts; ++attempt) {
    reply = Execute(statement, deadline_ms);
    if (reply.outcome != WireOutcome::kRejected) return reply;
    if (rejections != nullptr) ++*rejections;
    // Brief backoff: admission pressure clears in microseconds-to-
    // milliseconds; sleeping 1ms keeps retry storms off the accept queue.
    timespec nap{0, 1 * 1000 * 1000};
    ::nanosleep(&nap, nullptr);
  }
  return reply;
}

Result<std::string> QueryClient::Get(const std::string& target) {
  const int fd = DialTcp(options_.host, options_.port, options_.recv_timeout_ms);
  if (fd < 0) {
    return Status::Unavailable("client: GET connect failed: " +
                               std::string(std::strerror(errno)));
  }
  const std::string request = "GET " + target + " HTTP/1.1\r\nHost: " +
                              options_.host + "\r\nConnection: close\r\n\r\n";
  std::string buffer;
  int code = 0;
  std::string body;
  const bool ok = SendAll(fd, request) &&
                  ReadHttpResponse(fd, &buffer, &code, &body);
  ::close(fd);
  if (!ok) return Status::Unavailable("client: GET " + target + " failed");
  if (code != 200) {
    return Status::NotFound("client: GET " + target + " -> " +
                            std::to_string(code));
  }
  return body;
}

}  // namespace tempspec
