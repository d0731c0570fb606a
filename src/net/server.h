// NetServer: the engine's network front door.
//
// One event-loop thread (net/event_loop.h) owns the listener and every
// connection; a small worker pool executes query statements so a long scan
// never stalls the loop. The server speaks two protocols on one port,
// distinguished by the first bytes of the connection: anything starting
// with the TSP1 magic is the binary frame protocol (net/frame.h), anything
// else is HTTP/1.x (net/http.h). The telemetry endpoints (/metrics, /varz,
// /healthz, /debug/*) and the query endpoint (POST /query) are both plain
// HTTP handlers registered on the same server, so the exporter and the
// daemon share a single network stack.
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

/// \brief Fixed-size pool of statement-execution threads: a plain
/// mutex+condvar task queue, deliberately separate from util/thread_pool.h
/// (whose ParallelFor shape fits data-parallel scans, not long-lived
/// request execution — one statement may itself fan out onto that pool).
class WorkerPool {
 public:
  explicit WorkerPool(size_t threads);
  ~WorkerPool();

  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  /// \brief Enqueues a task; runs on some worker thread. No-op after
  /// Shutdown.
  void Submit(std::function<void()> task);

  /// \brief Drains the queue, waits for running tasks, joins the threads.
  /// Idempotent.
  void Shutdown();

 private:
  void Work();

  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<std::function<void()>> queue_;
  bool shutdown_ = false;
  std::vector<std::thread> threads_;
};

struct ServerOptions {
  std::string bind_address = "127.0.0.1";
  uint16_t port = 0;  // 0 picks an ephemeral port; read back via port()
  int backlog = 64;
  /// Open-connection cap; further accepts are closed immediately.
  size_t max_connections = 256;
  /// Statements executing or queued process-wide; excess is rejected.
  size_t max_inflight = 8;
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

  /// \brief Synchronous endpoint handler, run on the event-loop thread:
  /// must be fast and non-blocking (telemetry snapshots, health checks).
  using HttpHandler = std::function<void(const HttpRequest&, HttpResponse*)>;

  /// \brief Statement executor, run on a worker thread. `trace` carries the
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

  /// \brief Binds, starts the workers and the loop thread. Fails on
  /// bind/listen errors and double Start.
  Status Start();

  /// \brief Cancels in-flight statements, drains the workers, stops the
  /// loop, closes every connection. Idempotent.
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

  void OnAccept();
  void OnConnectionEvent(const std::shared_ptr<Connection>& conn,
                         uint32_t events);
  /// \brief Parses buffered input and dispatches at most one statement
  /// (per-connection serialization); re-entered after each completion.
  void ProcessInput(const std::shared_ptr<Connection>& conn);
  void ProcessHttp(const std::shared_ptr<Connection>& conn);
  void ProcessFrames(const std::shared_ptr<Connection>& conn);
  void RouteHttpRequest(const std::shared_ptr<Connection>& conn);
  /// \brief Admission + worker dispatch for one statement. `deadline_ms` 0
  /// means "none supplied" (the default applies).
  void DispatchStatement(const std::shared_ptr<Connection>& conn,
                         std::string statement, uint64_t deadline_ms,
                         const WireTraceInfo& wire, bool is_http,
                         bool http_keep_alive);
  /// \brief Response write + request-span finalization: ends the
  /// server-owned span and records it into the span store (the statement
  /// text rides along for the slow-query view).
  void CompleteStatement(const std::shared_ptr<Connection>& conn,
                         const std::shared_ptr<TraceContext>& trace,
                         const std::string& statement, const Status& status,
                         const std::string& payload, bool is_http,
                         bool http_keep_alive);
  void SendHttpResponse(const std::shared_ptr<Connection>& conn, int code,
                        std::string_view content_type, std::string_view body,
                        bool keep_alive);
  void SendFrame(const std::shared_ptr<Connection>& conn, const Frame& frame);
  void FlushWrites(const std::shared_ptr<Connection>& conn);
  /// \brief Recomputes the read/write interest mask from buffer state
  /// (backpressure lives here).
  void UpdateInterest(const std::shared_ptr<Connection>& conn);
  void CloseConnection(const std::shared_ptr<Connection>& conn);
  void SweepIdleConnections();

  ServerOptions options_;
  EventLoop loop_;
  std::unique_ptr<WorkerPool> workers_;
  OwnedFd listen_fd_;
  std::thread loop_thread_;
  std::atomic<bool> running_{false};
  std::atomic<uint16_t> bound_port_{0};

  std::map<std::string, HttpHandler> http_handlers_;
  HttpHandler http_fallback_;
  StatementHandler statement_handler_;

  // Loop-thread state.
  std::map<int, std::shared_ptr<Connection>> connections_;
  uint64_t next_connection_id_ = 1;
  size_t inflight_ = 0;

  // Monotonic counters; written by the loop thread, read anywhere.
  std::atomic<uint64_t> accepted_{0};
  std::atomic<uint64_t> refused_{0};
  std::atomic<uint64_t> requests_{0};
  std::atomic<uint64_t> rejected_{0};
  std::atomic<uint64_t> deadline_exceeded_{0};
  std::atomic<uint64_t> protocol_errors_{0};
  std::atomic<uint64_t> open_connections_{0};
  std::atomic<uint64_t> inflight_published_{0};
};

}  // namespace tempspec

#endif  // TEMPSPEC_NET_SERVER_H_
