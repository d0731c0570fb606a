// Blocking query client for the network plane — the production counterpart
// of the deliberately-independent test client in tests/net/net_test_client.h.
//
// One QueryClient owns one TCP connection and speaks one protocol on it:
// HTTP/1.1 keep-alive POST /query, or TSP1 binary frames (net/frame.h) with
// the optional per-request deadline carried in the frame header (over HTTP,
// in the X-Tempspec-Deadline-Ms header). Replies are classified into a
// protocol-independent outcome taxonomy so callers — the tenant driver, the
// simulator's reconciliation pass — can write one control flow for both
// protocols:
//
//   kOk          200 / kResult: the statement executed; body is its output.
//   kRejected    503 / kRejected: admission control turned the request away
//                before execution — the statement never reached the engine
//                (no transaction-time stamp was burned). Retryable.
//   kDeadline    the deadline expired (504; over TSP1, a kError whose text
//                begins "Deadline exceeded"). For a write this is ambiguous:
//                the statement may or may not have executed.
//   kClientError the engine parsed-and-refused: bad statement, unknown
//                relation, or a specialization-enforcement rejection
//                (4xx; over TSP1, "Invalid argument" / "Constraint
//                violation" / "Not found" / ... error text).
//   kServerError anything else the server answered (5xx / other kError).
//   kTransport   the connection failed; nothing is known about the request.
//
// The client retries nothing by itself except through ExecuteRetrying,
// which re-sends only on kRejected — the one outcome that provably did not
// execute.
#ifndef TEMPSPEC_NET_CLIENT_H_
#define TEMPSPEC_NET_CLIENT_H_

#include <cstdint>
#include <string>

#include "net/frame.h"
#include "util/result.h"

namespace tempspec {

enum class ClientProtocol { kHttp, kTsp1 };

enum class WireOutcome {
  kOk,
  kRejected,
  kDeadline,
  kClientError,
  kServerError,
  kTransport,
};

const char* WireOutcomeToString(WireOutcome outcome);

struct WireReply {
  WireOutcome outcome = WireOutcome::kTransport;
  /// HTTP status code (0 over TSP1 — the frame protocol has no code).
  int http_code = 0;
  /// Statement output on kOk; the server's error text otherwise.
  std::string body;

  bool ok() const { return outcome == WireOutcome::kOk; }
};

struct ClientOptions {
  std::string host = "127.0.0.1";
  uint16_t port = 0;
  ClientProtocol protocol = ClientProtocol::kHttp;
  /// Bound on every blocking read so a dead server surfaces as kTransport
  /// instead of a hang.
  int recv_timeout_ms = 30000;
  /// Send a client-generated 128-bit trace id + per-request span id with
  /// every statement (X-Tempspec-Trace header / TSP1 trace frame prefix) so
  /// server-side slowlog and retained-trace entries join to this request.
  bool propagate_trace = true;
};

class QueryClient {
 public:
  explicit QueryClient(ClientOptions options) : options_(std::move(options)) {}
  ~QueryClient();

  QueryClient(const QueryClient&) = delete;
  QueryClient& operator=(const QueryClient&) = delete;

  /// \brief (Re)connects, closing any existing socket first. The port may
  /// differ from the last connect — a restarted daemon on an ephemeral port
  /// is the expected client lifecycle under crash recovery.
  Status Connect(uint16_t port = 0);

  bool connected() const { return fd_ >= 0; }
  void Close();

  const ClientOptions& options() const { return options_; }

  /// \brief One statement, one reply, on the configured protocol.
  /// `deadline_ms` 0 leaves the server's default deadline in force.
  WireReply Execute(const std::string& statement, uint64_t deadline_ms = 0);

  /// \brief Execute with bounded retry on admission rejection (the only
  /// outcome that provably never executed). `rejections`, when non-null, is
  /// incremented once per rejected attempt. After max_attempts rejections
  /// the last kRejected reply is returned.
  WireReply ExecuteRetrying(const std::string& statement,
                            uint64_t deadline_ms = 0, int max_attempts = 200,
                            int* rejections = nullptr);

  /// \brief HTTP GET against the same port (the telemetry endpoints:
  /// /metrics, /varz, /healthz). Always speaks HTTP regardless of the
  /// configured statement protocol, on a short-lived second connection so
  /// a TSP1 client can scrape too.
  Result<std::string> Get(const std::string& target);

  /// \brief The 128-bit trace id sent with the most recent Execute(), as 32
  /// lowercase hex chars ("" before the first request or with propagation
  /// off). The simulator greps server-side slowlog/trace output for this.
  const std::string& last_trace_id() const { return last_trace_id_; }
  uint64_t last_span_id() const { return span_id_; }

 private:
  /// Rolls a fresh trace id + span id for the next request.
  void NextTrace();
  WireReply ExecuteHttp(const std::string& statement, uint64_t deadline_ms);
  WireReply ExecuteFrame(const std::string& statement, uint64_t deadline_ms);
  bool SendAll(int fd, const std::string& bytes);
  bool Fill(int fd, std::string* buffer);
  /// Reads one HTTP response off `fd` into code/body; false on transport
  /// failure. Consumes exactly one response from `buffer`.
  bool ReadHttpResponse(int fd, std::string* buffer, int* code,
                        std::string* body);

  ClientOptions options_;
  int fd_ = -1;
  std::string buffered_;
  FrameDecoder decoder_{kFrameMaxPayloadBytes};
  uint64_t trace_hi_ = 0;
  uint64_t trace_lo_ = 0;
  uint64_t span_id_ = 0;
  std::string last_trace_id_;
};

}  // namespace tempspec

#endif  // TEMPSPEC_NET_CLIENT_H_
