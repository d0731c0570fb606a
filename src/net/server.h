// NetServer: the engine's network front door.
//
// A leader/followers pool of `worker_threads + 1` threads shares one event
// loop (net/event_loop.h). Exactly one thread leads at a time: it polls,
// accepts, reads and parses requests, admits statements, answers telemetry
// and runs the loop's timers and posted tasks. When the leader admits a
// statement while a follower is idle, it promotes that follower to leader
// and runs the statement itself; otherwise the statement waits in the
// admission queue for the next thread that finishes one. So at most
// `worker_threads` statements execute at once, a long scan never stalls the
// loop, and a statement reaches its thread without a hand-off. The thread
// that ran a statement also encodes the reply, writes it to the socket
// under the connection's mutex and records the request span; it posts back
// to the loop only when work remains (a partial write, buffered pipelined
// input, close-after-flush or a changed interest mask).
//
// The server speaks two protocols on one port, distinguished by the first
// bytes of the connection: anything starting with the TSP1 magic is the
// binary frame protocol (net/frame.h), anything else is HTTP/1.x
// (net/http.h). The telemetry endpoints (/metrics, /varz, /healthz,
// /debug/*) and the query endpoint (POST /query) are both plain HTTP
// handlers registered on the same server, so the query plane and the
// telemetry plane share a single network stack.
//
// Operational policies, all tunable via ServerOptions:
//
//   Admission control — at most `max_inflight` statements execute or queue
//   at once, process-wide. Excess requests are refused *before* execution
//   (HTTP 503 / kRejected frame) rather than queued without bound: under
//   overload the server sheds load in O(1) and stays responsive to
//   telemetry scrapes, which never pass through admission.
//
//   Deadlines — a statement may carry a deadline (X-Tempspec-Deadline-Ms
//   header / frame deadline prefix), clamped to `max_deadline_ms` and
//   defaulted from `default_deadline_ms`. The deadline is armed on the
//   query's TraceContext at admission, so queue wait counts against it; the
//   executor polls it at morsel boundaries and the statement completes with
//   Deadline exceeded (HTTP 504) instead of running to completion. A client
//   that disconnects mid-query cancels it the same way.
//
//   Backpressure — each connection buffers writes; when a connection's
//   buffer exceeds `write_high_watermark` the server stops reading from it
//   until the buffer drains below half. A slow reader therefore throttles
//   itself, not the process. One statement runs per connection at a time
//   (pipelined requests stay buffered), so per-connection memory is bounded
//   by the limits plus one response.
#ifndef TEMPSPEC_NET_SERVER_H_
#define TEMPSPEC_NET_SERVER_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "net/event_loop.h"
#include "net/frame.h"
#include "net/http.h"
#include "obs/trace.h"
#include "util/result.h"

namespace tempspec {

struct ServerOptions {
  std::string bind_address = "127.0.0.1";
  uint16_t port = 0;  // 0 picks an ephemeral port; read back via port()
  int backlog = 64;
  /// Open-connection cap; further accepts are closed immediately.
  size_t max_connections = 256;
  /// Statements executing or queued process-wide; excess is rejected.
  size_t max_inflight = 8;
  /// Statements executing at once; the pool has one more thread, which
  /// leads the event loop.
  size_t worker_threads = 2;
  HttpLimits http_limits;
  size_t max_frame_payload_bytes = 1 * 1024 * 1024;
  /// Applied when a request carries no deadline; 0 = unlimited.
  uint64_t default_deadline_ms = 0;
  /// Upper clamp for client-supplied deadlines; 0 = no clamp.
  uint64_t max_deadline_ms = 60 * 1000;
  /// Pause reading from a connection whose write buffer exceeds this;
  /// resume below half.
  size_t write_high_watermark = 4 * 1024 * 1024;
  /// Close connections idle this long with nothing in flight; 0 disables.
  uint64_t idle_timeout_ms = 60 * 1000;
};

/// \brief Monotonic counters snapshot (tests and /varz).
struct ServerStats {
  uint64_t connections_accepted = 0;
  uint64_t connections_refused = 0;  // over max_connections
  uint64_t requests = 0;             // statements admitted
  uint64_t requests_rejected = 0;    // admission control refusals
  uint64_t deadline_exceeded = 0;
  uint64_t protocol_errors = 0;      // malformed HTTP/frames
  uint64_t open_connections = 0;     // gauge
  uint64_t inflight = 0;             // gauge
};

class NetServer {
 public:
  struct HttpResponse {
    int code = 200;
    std::string content_type = "text/plain; charset=utf-8";
    std::string body;
  };

  /// \brief Synchronous endpoint handler, run on the current leader: must
  /// be fast and non-blocking (telemetry snapshots, health checks).
  using HttpHandler = std::function<void(const HttpRequest&, HttpResponse*)>;

  /// \brief Statement executor, run on the thread that admitted the
  /// statement, or on the thread that took it from the admission queue.
  /// Several run at once, on different connections. `trace` carries the
  /// armed deadline/cancellation and is valid for the duration of the call.
  using StatementHandler =
      std::function<Result<std::string>(const std::string& statement,
                                        TraceContext* trace)>;

  explicit NetServer(ServerOptions options = {});
  ~NetServer();

  NetServer(const NetServer&) = delete;
  NetServer& operator=(const NetServer&) = delete;

  /// \brief Registers a GET endpoint by exact target ("/metrics"). Call
  /// before Start().
  void AddHttpHandler(std::string target, HttpHandler handler);

  /// \brief Handler for GET targets with no exact match; the response code
  /// defaults to 404 (endpoint-discovery bodies). Call before Start().
  void SetHttpFallback(HttpHandler handler);

  /// \brief Installs the executor behind POST /query and kQuery frames.
  /// Call before Start(). Without one, query requests answer 404 /
  /// kError.
  void SetStatementHandler(StatementHandler handler);

  /// \brief Binds and starts the pool. Fails on bind/listen errors and
  /// double Start.
  Status Start();

  /// \brief Cancels admitted statements, lets the pool answer them, joins
  /// its threads, closes every connection. Idempotent.
  void Stop();

  bool running() const { return running_.load(std::memory_order_acquire); }
  uint16_t port() const { return bound_port_.load(std::memory_order_acquire); }
  const ServerOptions& options() const { return options_; }

  ServerStats Stats() const;

 private:
  struct Connection;

  /// \brief Client-supplied wire trace identity for one statement
  /// (X-Tempspec-Trace header / TSP1 trace prefix); `set` false when the
  /// request carried none (or carried a malformed header, which is treated
  /// the same — tracing must never fail a request).
  struct WireTraceInfo {
    uint64_t hi = 0;
    uint64_t lo = 0;
    uint64_t span = 0;
    bool set = false;
  };

  /// \brief One admitted statement, queued until a thread runs it.
  struct Statement {
    std::shared_ptr<Connection> conn;
    std::shared_ptr<TraceContext> trace;
    std::string text;
    std::chrono::steady_clock::time_point admitted;
    bool is_http = false;
    bool http_keep_alive = true;
  };

  /// \brief Body of every pool thread: runs queued statements while a slot
  /// is free, leads when no thread does (until a statement can run or the
  /// pool stops), and otherwise waits as a follower.
  void ServeThread();
  /// \brief A statement is queued and a slot is free. Caller holds pool_mu_.
  bool Runnable() const;
  /// \brief Executes one statement, writes its reply and records its span.
  void RunStatement(Statement statement);

  void OnAccept();
  void OnConnectionEvent(const std::shared_ptr<Connection>& conn,
                         uint32_t events);
  /// \brief Parses buffered input and admits at most one statement at a
  /// time per connection; while one runs, its thread resumes the input.
  void ProcessInput(const std::shared_ptr<Connection>& conn);
  /// \brief Handle at most one buffered request or frame; false when none
  /// was complete or the connection is done.
  bool ProcessHttp(const std::shared_ptr<Connection>& conn);
  bool ProcessFrame(const std::shared_ptr<Connection>& conn);
  void RouteHttpRequest(const std::shared_ptr<Connection>& conn);
  /// \brief Admission for one statement, which then waits in the queue for
  /// a thread. `deadline_ms` 0 means "none supplied" (the default applies).
  void DispatchStatement(const std::shared_ptr<Connection>& conn,
                         std::string statement, uint64_t deadline_ms,
                         const WireTraceInfo& wire, bool is_http,
                         bool http_keep_alive);
  /// \brief Leader-side resumption of a connection whose statement thread
  /// left work: flushes, parses buffered input, recomputes interest.
  void ResumeConnection(const std::shared_ptr<Connection>& conn);
  /// \brief Leader-side sends. A reply with keep_alive false, or a frame
  /// sent with `then_close`, closes the connection once flushed.
  void SendHttpResponse(const std::shared_ptr<Connection>& conn, int code,
                        std::string_view content_type, std::string_view body,
                        bool keep_alive);
  void SendFrame(const std::shared_ptr<Connection>& conn, const Frame& frame,
                 bool then_close = false);
  /// \brief Writes what the socket takes; caller holds `conn.mu`. False when
  /// the connection is done: a write failed, or the output is flushed and
  /// close-after-flush is set.
  bool FlushLocked(Connection& conn);
  /// \brief Leader side, `lock` holding `conn->mu`: flushes, then
  /// recomputes the interest mask, or unlocks and closes a connection that
  /// is done.
  void FlushAndUpdate(const std::shared_ptr<Connection>& conn,
                      std::unique_lock<std::mutex>& lock);
  void FlushWrites(const std::shared_ptr<Connection>& conn);
  /// \brief Recomputes the read/write interest mask from buffer state
  /// (backpressure lives here). Leader only; the Locked form with
  /// `conn.mu` held.
  void UpdateInterest(const std::shared_ptr<Connection>& conn);
  void UpdateInterestLocked(Connection& conn);
  void CloseConnection(const std::shared_ptr<Connection>& conn);
  void SweepIdleConnections();

  ServerOptions options_;
  EventLoop loop_;
  OwnedFd listen_fd_;
  std::atomic<bool> running_{false};
  std::atomic<uint16_t> bound_port_{0};

  // The leader/followers pool; its threads are the last member.
  std::mutex pool_mu_;
  std::condition_variable pool_cv_;  // idle followers wait here
  std::deque<Statement> queue_;      // admitted, waiting for a free slot
  size_t executing_ = 0;             // statements running, <= slots
  bool leading_ = false;             // a thread is leading
  bool stopping_ = false;

  std::map<std::string, HttpHandler> http_handlers_;
  HttpHandler http_fallback_;
  StatementHandler statement_handler_;

  // Leader-only state.
  std::map<int, std::shared_ptr<Connection>> connections_;
  uint64_t next_connection_id_ = 1;

  // Admitted statements not yet answered: raised by the leader at admission,
  // lowered by the statement's thread before it writes the reply.
  std::atomic<uint64_t> inflight_{0};

  // Monotonic counters, read anywhere.
  std::atomic<uint64_t> accepted_{0};
  std::atomic<uint64_t> refused_{0};
  std::atomic<uint64_t> requests_{0};
  std::atomic<uint64_t> rejected_{0};
  std::atomic<uint64_t> deadline_exceeded_{0};
  std::atomic<uint64_t> protocol_errors_{0};
  std::atomic<uint64_t> open_connections_{0};

  std::vector<std::thread> threads_;
};

}  // namespace tempspec

#endif  // TEMPSPEC_NET_SERVER_H_
