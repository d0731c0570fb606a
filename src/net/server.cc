#include "net/server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cstring>

#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/span_store.h"

namespace tempspec {

namespace {

bool EqualsIgnoreCase(std::string_view a, std::string_view b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (std::tolower(static_cast<unsigned char>(a[i])) !=
        std::tolower(static_cast<unsigned char>(b[i]))) {
      return false;
    }
  }
  return true;
}

bool WantsKeepAlive(const HttpRequest& request) {
  const std::string* connection = request.FindHeader("Connection");
  if (request.version == "HTTP/1.1") {
    return connection == nullptr || !EqualsIgnoreCase(*connection, "close");
  }
  return connection != nullptr && EqualsIgnoreCase(*connection, "keep-alive");
}

bool ParseU64(std::string_view s, uint64_t* out) {
  if (s.empty() || s.size() > 18) return false;
  uint64_t value = 0;
  for (char c : s) {
    if (c < '0' || c > '9') return false;
    value = value * 10 + static_cast<uint64_t>(c - '0');
  }
  *out = value;
  return true;
}

bool ParseHex64(std::string_view s, uint64_t* out) {
  if (s.size() != 16) return false;
  uint64_t v = 0;
  for (char c : s) {
    int digit;
    if (c >= '0' && c <= '9') {
      digit = c - '0';
    } else if (c >= 'a' && c <= 'f') {
      digit = c - 'a' + 10;
    } else if (c >= 'A' && c <= 'F') {
      digit = c - 'A' + 10;
    } else {
      return false;
    }
    v = (v << 4) | static_cast<uint64_t>(digit);
  }
  *out = v;
  return true;
}

// X-Tempspec-Trace: "<32 hex trace id>-<16 hex span id>". False on any
// malformation — the caller falls back to a server-generated id; a bad
// trace header must never fail the request itself.
bool ParseTraceHeader(const std::string& header, uint64_t* hi, uint64_t* lo,
                      uint64_t* span) {
  const std::string_view s(header);
  return s.size() == 49 && s[32] == '-' && ParseHex64(s.substr(0, 16), hi) &&
         ParseHex64(s.substr(16, 16), lo) && ParseHex64(s.substr(33, 16), span);
}

uint64_t MicrosBetween(std::chrono::steady_clock::time_point a,
                       std::chrono::steady_clock::time_point b) {
  return static_cast<uint64_t>(std::max<int64_t>(
      0, std::chrono::duration_cast<std::chrono::microseconds>(b - a).count()));
}

int StatusToHttpCode(const Status& status) {
  switch (status.code()) {
    case StatusCode::kOk: return 200;
    case StatusCode::kDeadlineExceeded: return 504;
    case StatusCode::kUnavailable: return 503;
    case StatusCode::kNotFound: return 404;
    case StatusCode::kNotImplemented: return 404;
    case StatusCode::kInvalidArgument:
    case StatusCode::kConstraintViolation:
    case StatusCode::kAlreadyExists:
    case StatusCode::kOutOfRange: return 400;
    default: return 500;
  }
}

constexpr char kTextPlain[] = "text/plain; charset=utf-8";

// Longest one loop pass blocks; readiness, a timer or a posted task ends it
// sooner.
constexpr int kLeaderWaitMs = 100;

}  // namespace

struct NetServer::Connection {
  Connection(const HttpLimits& limits, size_t max_frame_payload)
      : http(limits), decoder(max_frame_payload) {}

  // Set at accept, then read-only.
  uint64_t id = 0;
  std::string peer;  // "ip:port" of the remote end, for span/slowlog attrs

  // Leader-only: the input side. `fd` and `closed` change only on the
  // leader and under `mu`, because a statement's thread writes through `fd`.
  OwnedFd fd;
  bool closed = false;
  enum class Proto { kUnknown, kHttp, kFrame } proto = Proto::kUnknown;
  std::string inbuf;  // raw bytes ahead of the protocol machinery
  HttpParser http;
  FrameDecoder decoder;
  bool reading_paused = false;

  // Guarded by `mu`: the output side, and the hand-over between the leader
  // and the thread running this connection's statement.
  std::mutex mu;
  std::string outbuf;
  size_t out_offset = 0;
  uint32_t interest = kEventReadable;
  bool processing = false;     // a statement is admitted for this connection
  bool input_pending = false;  // input arrived while it was
  bool close_after_flush = false;
  std::shared_ptr<TraceContext> active_trace;  // cancelled on disconnect
  std::chrono::steady_clock::time_point last_activity;
};

NetServer::NetServer(ServerOptions options) : options_(std::move(options)) {}

NetServer::~NetServer() { Stop(); }

void NetServer::AddHttpHandler(std::string target, HttpHandler handler) {
  http_handlers_[std::move(target)] = std::move(handler);
}

void NetServer::SetHttpFallback(HttpHandler handler) {
  http_fallback_ = std::move(handler);
}

void NetServer::SetStatementHandler(StatementHandler handler) {
  statement_handler_ = std::move(handler);
}

Status NetServer::Start() {
  if (running_.load(std::memory_order_acquire)) {
    return Status::AlreadyExists("server already running on port ",
                                 bound_port_.load());
  }
  TS_RETURN_NOT_OK(loop_.Init());
  TS_ASSIGN_OR_RETURN(listen_fd_,
                      ListenTcp(options_.bind_address, options_.port,
                                options_.backlog));
  TS_ASSIGN_OR_RETURN(const uint16_t port, LocalPort(listen_fd_.get()));
  TS_RETURN_NOT_OK(loop_.Register(listen_fd_.get(), kEventReadable,
                                  [this](uint32_t) { OnAccept(); }));
  bound_port_.store(port, std::memory_order_release);
  // No thread leads yet, so this thread may still touch the loop.
  if (options_.idle_timeout_ms > 0) {
    loop_.AddTimer(std::chrono::milliseconds(1000),
                   [this] { SweepIdleConnections(); });
  }
  stopping_ = false;
  running_.store(true, std::memory_order_release);
  const size_t threads = std::max<size_t>(1, options_.worker_threads) + 1;
  for (size_t i = 0; i < threads; ++i) {
    threads_.emplace_back([this] { ServeThread(); });
  }
  TS_FLIGHT(FlightCategory::kServer, FlightCode::kServerStart, port, 0, "");
  TS_COUNTER_INC("server.starts");
  return Status::OK();
}

void NetServer::Stop() {
  if (!running_.exchange(false, std::memory_order_acq_rel)) return;
  // The leader stops the pool and cancels every admitted statement, queued
  // or running, so the drain below is quick. The pool still answers them:
  // an admitted statement's reply must reach its connection, never vanish.
  loop_.RunInLoop([this] {
    {
      std::lock_guard<std::mutex> lock(pool_mu_);
      stopping_ = true;
    }
    pool_cv_.notify_all();
    for (auto& [fd, conn] : connections_) {
      std::lock_guard<std::mutex> lock(conn->mu);
      if (conn->active_trace != nullptr) conn->active_trace->RequestCancel();
    }
  });
  for (std::thread& thread : threads_) thread.join();
  threads_.clear();
  // The pool has exited; connection state is safe to touch here.
  TS_FLIGHT(FlightCategory::kServer, FlightCode::kServerStop,
            accepted_.load(std::memory_order_relaxed), 0, "");
  while (!connections_.empty()) {
    CloseConnection(std::shared_ptr<Connection>(connections_.begin()->second));
  }
  loop_.Deregister(listen_fd_.get());
  listen_fd_.Reset();
}

ServerStats NetServer::Stats() const {
  ServerStats stats;
  stats.connections_accepted = accepted_.load(std::memory_order_relaxed);
  stats.connections_refused = refused_.load(std::memory_order_relaxed);
  stats.requests = requests_.load(std::memory_order_relaxed);
  stats.requests_rejected = rejected_.load(std::memory_order_relaxed);
  stats.deadline_exceeded = deadline_exceeded_.load(std::memory_order_relaxed);
  stats.protocol_errors = protocol_errors_.load(std::memory_order_relaxed);
  stats.open_connections = open_connections_.load(std::memory_order_relaxed);
  stats.inflight = inflight_.load(std::memory_order_relaxed);
  return stats;
}

bool NetServer::Runnable() const {
  return !queue_.empty() &&
         executing_ < std::max<size_t>(1, options_.worker_threads);
}

void NetServer::ServeThread() {
  std::unique_lock<std::mutex> lock(pool_mu_);
  while (true) {
    pool_cv_.wait(lock, [this] { return Runnable() || stopping_ || !leading_; });
    if (Runnable()) {
      Statement statement = std::move(queue_.front());
      queue_.pop_front();
      ++executing_;
      // With a slot free, some other thread is idle: promote it, so the
      // loop is never left unattended while this one executes.
      const bool promote = !leading_;
      lock.unlock();
      if (promote) pool_cv_.notify_one();
      RunStatement(std::move(statement));
      lock.lock();
      --executing_;
      continue;
    }
    if (stopping_) return;
    leading_ = true;
    while (!stopping_ && !Runnable()) {
      lock.unlock();
      loop_.RunOnce(kLeaderWaitMs);
      lock.lock();
    }
    leading_ = false;
  }
}

void NetServer::OnAccept() {
  while (true) {
    sockaddr_in peer_addr{};
    socklen_t peer_len = sizeof(peer_addr);
    const int cfd = ::accept(listen_fd_.get(),
                             reinterpret_cast<sockaddr*>(&peer_addr),
                             &peer_len);
    if (cfd < 0) break;  // EAGAIN / transient: the loop will call back
    if (connections_.size() >= options_.max_connections) {
      ::close(cfd);
      refused_.fetch_add(1, std::memory_order_relaxed);
      TS_COUNTER_INC("server.connections_refused");
      TS_FLIGHT(FlightCategory::kServer, FlightCode::kServerReject, 0,
                static_cast<int64_t>(connections_.size()), "max_connections");
      continue;
    }
    if (!SetNonBlocking(cfd).ok()) {
      ::close(cfd);
      continue;
    }
    SetNoDelay(cfd);
    auto conn = std::make_shared<Connection>(options_.http_limits,
                                             options_.max_frame_payload_bytes);
    conn->fd.Reset(cfd);
    conn->id = next_connection_id_++;
    if (peer_addr.sin_family == AF_INET) {
      char ip[INET_ADDRSTRLEN] = {};
      if (::inet_ntop(AF_INET, &peer_addr.sin_addr, ip, sizeof(ip)) !=
          nullptr) {
        conn->peer =
            std::string(ip) + ":" + std::to_string(ntohs(peer_addr.sin_port));
      }
    }
    conn->last_activity = std::chrono::steady_clock::now();
    connections_[cfd] = conn;
    accepted_.fetch_add(1, std::memory_order_relaxed);
    open_connections_.store(connections_.size(), std::memory_order_relaxed);
    TS_COUNTER_INC("server.connections_accepted");
    TS_GAUGE_SET("server.open_connections",
                 static_cast<int64_t>(connections_.size()));
    TS_FLIGHT(FlightCategory::kServer, FlightCode::kServerAccept,
              static_cast<int64_t>(conn->id),
              static_cast<int64_t>(connections_.size()), "");
    const Status registered = loop_.Register(
        cfd, kEventReadable,
        [this, conn](uint32_t events) { OnConnectionEvent(conn, events); });
    if (!registered.ok()) CloseConnection(conn);
  }
}

void NetServer::OnConnectionEvent(const std::shared_ptr<Connection>& conn,
                                  uint32_t events) {
  if (conn->closed) return;
  if (events & kEventError) {
    CloseConnection(conn);
    return;
  }
  if (events & kEventWritable) {
    FlushWrites(conn);
    if (conn->closed) return;
  }
  if (events & kEventReadable) {
    char buf[16384];
    while (true) {
      const ssize_t n = ::read(conn->fd.get(), buf, sizeof(buf));
      if (n > 0) {
        conn->inbuf.append(buf, static_cast<size_t>(n));
        if (n < static_cast<ssize_t>(sizeof(buf))) break;  // drained
        continue;
      }
      if (n == 0) {  // peer closed; cancel whatever it was waiting for
        CloseConnection(conn);
        return;
      }
      if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR) break;
      CloseConnection(conn);
      return;
    }
    {
      std::lock_guard<std::mutex> lock(conn->mu);
      conn->last_activity = std::chrono::steady_clock::now();
    }
    ProcessInput(conn);
    if (conn->closed) return;
  }
  UpdateInterest(conn);
}

void NetServer::ProcessInput(const std::shared_ptr<Connection>& conn) {
  while (!conn->closed) {
    {
      std::lock_guard<std::mutex> lock(conn->mu);
      if (conn->close_after_flush) return;
      if (conn->processing) {
        // The statement's thread posts the input back when it finishes.
        conn->input_pending =
            !conn->inbuf.empty() || conn->decoder.buffered_bytes() > 0;
        return;
      }
    }
    if (conn->proto == Connection::Proto::kUnknown) {
      if (conn->inbuf.size() < 4) return;
      // The TSP1 magic on the wire ("TSP1") is not a prefix of any HTTP
      // method, so 4 bytes decide the protocol unambiguously.
      static const char kMagicBytes[4] = {0x54, 0x53, 0x50, 0x31};
      conn->proto =
          std::memcmp(conn->inbuf.data(), kMagicBytes, 4) == 0
              ? Connection::Proto::kFrame
              : Connection::Proto::kHttp;
    }
    const bool handled = conn->proto == Connection::Proto::kHttp
                             ? ProcessHttp(conn)
                             : ProcessFrame(conn);
    if (!handled) return;
  }
}

bool NetServer::ProcessHttp(const std::shared_ptr<Connection>& conn) {
  if (!conn->inbuf.empty()) {
    const size_t consumed =
        conn->http.Feed(conn->inbuf.data(), conn->inbuf.size());
    conn->inbuf.erase(0, consumed);
  }
  if (conn->http.error()) {
    protocol_errors_.fetch_add(1, std::memory_order_relaxed);
    TS_COUNTER_INC("server.protocol_errors");
    SendHttpResponse(conn, conn->http.error_code(), kTextPlain,
                     conn->http.error_reason() + "\n", /*keep_alive=*/false);
    return false;
  }
  if (!conn->http.complete()) return false;  // wait for more bytes
  RouteHttpRequest(conn);
  conn->http.Reset();  // an admitted statement holds its own copy
  return !conn->inbuf.empty();
}

bool NetServer::ProcessFrame(const std::shared_ptr<Connection>& conn) {
  if (!conn->inbuf.empty()) {
    conn->decoder.Feed(conn->inbuf.data(), conn->inbuf.size());
    conn->inbuf.clear();
  }
  Result<std::optional<Frame>> next = conn->decoder.Next();
  if (!next.ok()) {
    protocol_errors_.fetch_add(1, std::memory_order_relaxed);
    TS_COUNTER_INC("server.protocol_errors");
    Frame error;
    error.type = FrameType::kError;
    error.payload = next.status().ToString();
    SendFrame(conn, error, /*then_close=*/true);
    return false;
  }
  if (!next.ValueOrDie().has_value()) return false;  // truncated: need bytes
  Frame frame = std::move(*next.ValueOrDie());
  switch (frame.type) {
    case FrameType::kPing: {
      Frame pong;
      pong.type = FrameType::kPong;
      pong.payload = std::move(frame.payload);
      SendFrame(conn, pong);
      return true;
    }
    case FrameType::kQuery: {
      WireTraceInfo wire;
      if (frame.has_trace()) {
        wire.hi = frame.trace_hi;
        wire.lo = frame.trace_lo;
        wire.span = frame.span_id;
        wire.set = true;
      }
      DispatchStatement(conn, std::move(frame.payload),
                        frame.has_deadline() ? frame.deadline_millis : 0,
                        wire, /*is_http=*/false, /*http_keep_alive=*/true);
      return true;
    }
    default: {
      // kResult/kError/kPong/kRejected are server-to-client only.
      protocol_errors_.fetch_add(1, std::memory_order_relaxed);
      TS_COUNTER_INC("server.protocol_errors");
      Frame error;
      error.type = FrameType::kError;
      error.payload = "Invalid argument: client sent a server-only frame type";
      SendFrame(conn, error, /*then_close=*/true);
      return false;
    }
  }
}

void NetServer::RouteHttpRequest(const std::shared_ptr<Connection>& conn) {
  const HttpRequest& request = conn->http.request();
  const bool keep_alive = WantsKeepAlive(request);
  if (request.method == "GET") {
    auto it = http_handlers_.find(request.target);
    if (it != http_handlers_.end()) {
      HttpResponse response;
      it->second(request, &response);
      SendHttpResponse(conn, response.code, response.content_type,
                       response.body, keep_alive);
    } else if (request.target == "/query") {
      SendHttpResponse(conn, 405, kTextPlain, "POST a statement to /query\n",
                       keep_alive);
    } else if (http_fallback_) {
      HttpResponse response;
      response.code = 404;
      http_fallback_(request, &response);
      SendHttpResponse(conn, response.code, response.content_type,
                       response.body, keep_alive);
    } else {
      SendHttpResponse(conn, 404, kTextPlain, "not found\n", keep_alive);
    }
    return;
  }
  if (request.method == "POST") {
    if (request.target != "/query" || !statement_handler_) {
      SendHttpResponse(conn, 404, kTextPlain,
                       "not found; statements go to POST /query\n",
                       keep_alive);
      return;
    }
    uint64_t deadline_ms = 0;
    if (const std::string* header =
            request.FindHeader("X-Tempspec-Deadline-Ms")) {
      if (!ParseU64(*header, &deadline_ms)) {
        SendHttpResponse(conn, 400, kTextPlain,
                         "malformed X-Tempspec-Deadline-Ms\n", keep_alive);
        return;
      }
    }
    // Unlike the deadline header, a malformed trace header is not a 400:
    // the request executes under a server-generated id instead.
    WireTraceInfo wire;
    if (const std::string* header = request.FindHeader("X-Tempspec-Trace")) {
      wire.set = ParseTraceHeader(*header, &wire.hi, &wire.lo, &wire.span);
    }
    DispatchStatement(conn, request.body, deadline_ms, wire, /*is_http=*/true,
                      keep_alive);
    return;
  }
  SendHttpResponse(conn, 405, kTextPlain, "method not allowed\n", keep_alive);
}

void NetServer::DispatchStatement(const std::shared_ptr<Connection>& conn,
                                  std::string statement, uint64_t deadline_ms,
                                  const WireTraceInfo& wire, bool is_http,
                                  bool http_keep_alive) {
  const uint64_t inflight = inflight_.load(std::memory_order_acquire);
  if (inflight >= options_.max_inflight) {
    rejected_.fetch_add(1, std::memory_order_relaxed);
    TS_COUNTER_INC("server.requests_rejected");
    TS_FLIGHT(FlightCategory::kServer, FlightCode::kServerReject,
              static_cast<int64_t>(conn->id), static_cast<int64_t>(inflight),
              "max_inflight");
    const char* message =
        "overloaded: too many in-flight statements, retry later";
    if (is_http) {
      SendHttpResponse(conn, 503, kTextPlain, std::string(message) + "\n",
                       http_keep_alive);
    } else {
      Frame rejected;
      rejected.type = FrameType::kRejected;
      rejected.payload = message;
      SendFrame(conn, rejected);
    }
    return;
  }

  // Only the leader raises the count, so the check above cannot be raced.
  inflight_.fetch_add(1, std::memory_order_acq_rel);
  TS_GAUGE_ADD("server.inflight", 1);
  requests_.fetch_add(1, std::memory_order_relaxed);
  TS_COUNTER_INC("server.requests");
  TS_FLIGHT(FlightCategory::kServer, FlightCode::kServerRequest,
            static_cast<int64_t>(conn->id),
            static_cast<int64_t>(statement.size()), "");

  // Deadline policy: a client value is clamped to max_deadline_ms; no value
  // falls back to default_deadline_ms (0 = unlimited). Armed at admission,
  // so time spent queued behind other statements counts against it.
  uint64_t effective_ms = deadline_ms;
  if (effective_ms == 0) {
    effective_ms = options_.default_deadline_ms;
  } else if (options_.max_deadline_ms > 0 &&
             effective_ms > options_.max_deadline_ms) {
    effective_ms = options_.max_deadline_ms;
  }
  // The request span starts at admission, so its wall clock covers queue
  // wait, execution, and the response write — the server-side view of the
  // latency the client observes.
  auto trace = std::make_shared<TraceContext>();
  trace->SetServerOwned(true);
  if (wire.set) trace->SetWireTrace(wire.hi, wire.lo, wire.span);
  trace->Begin("server.request");
  trace->SetAttr("protocol", is_http ? "http" : "tsp1");
  if (!conn->peer.empty()) trace->SetAttr("peer", conn->peer);
  if (effective_ms > 0) {
    trace->ArmDeadlineAfterMicros(effective_ms * 1000);
    TS_FLIGHT(FlightCategory::kServer, FlightCode::kServerDeadline,
              static_cast<int64_t>(conn->id),
              static_cast<int64_t>(effective_ms), "");
  }
  {
    std::lock_guard<std::mutex> lock(conn->mu);
    conn->processing = true;
    conn->active_trace = trace;
  }
  std::lock_guard<std::mutex> lock(pool_mu_);
  // Admitted after Stop() cancelled the others: cancel it too.
  if (stopping_) trace->RequestCancel();
  queue_.push_back(Statement{conn, std::move(trace), std::move(statement),
                             std::chrono::steady_clock::now(), is_http,
                             http_keep_alive});
}

void NetServer::RunStatement(Statement statement) {
  const std::shared_ptr<Connection>& conn = statement.conn;
  TraceContext* trace = statement.trace.get();
  const auto picked_up = std::chrono::steady_clock::now();
  trace->AddStage("queue.wait", MicrosBetween(statement.admitted, picked_up));
  Status status;
  std::string payload;
  if (trace->CancellationRequested()) {
    status = Status::DeadlineExceeded(
        "deadline expired while the statement was queued");
  } else if (!statement_handler_) {  // frame clients can reach here with no handler
    status = Status::NotImplemented("no statement handler installed");
  } else {
    Result<std::string> result = statement_handler_(statement.text, trace);
    if (result.ok()) {
      payload = std::move(result).ValueOrDie();
    } else {
      status = result.status();
    }
  }
  const auto respond_start = std::chrono::steady_clock::now();
  trace->AddStage("execute", MicrosBetween(picked_up, respond_start));
  // Released before the reply is written, so a client that sends its next
  // statement on reading this reply finds the permit free.
  inflight_.fetch_sub(1, std::memory_order_acq_rel);
  TS_GAUGE_ADD("server.inflight", -1);
  if (status.IsDeadlineExceeded()) {
    deadline_exceeded_.fetch_add(1, std::memory_order_relaxed);
    TS_COUNTER_INC("server.deadline_exceeded");
  }

  bool resume = false;
  {
    std::lock_guard<std::mutex> lock(conn->mu);
    conn->processing = false;
    conn->active_trace.reset();
    if (!conn->closed) {  // else the client went away mid-execution
      if (statement.is_http) {
        const bool keep_alive = statement.http_keep_alive;
        if (!keep_alive) conn->close_after_flush = true;
        conn->outbuf +=
            status.ok()
                ? BuildHttpResponse(200, kTextPlain, payload, keep_alive)
                : BuildHttpResponse(StatusToHttpCode(status), kTextPlain,
                                    status.ToString() + "\n", keep_alive);
      } else {
        Frame frame;
        frame.type = status.ok() ? FrameType::kResult : FrameType::kError;
        frame.payload = status.ok() ? std::move(payload) : status.ToString();
        EncodeFrame(frame, &conn->outbuf);
      }
      FlushLocked(*conn);
      // Whatever is left needs the leader: the rest of a partial write,
      // input that arrived meanwhile, a close, or an interest change.
      resume = conn->input_pending || conn->close_after_flush ||
               conn->out_offset < conn->outbuf.size() ||
               conn->interest != kEventReadable;
      conn->input_pending = false;
    }
  }
  if (resume) loop_.RunInLoop([this, conn] { ResumeConnection(conn); });

  // Finalize and record the server-owned request span into the span store,
  // where other planes join it by trace id. Recorded even for a
  // disconnected client: the work happened.
  trace->AddStage("respond", MicrosBetween(respond_start,
                                           std::chrono::steady_clock::now()));
  trace->SetAttr("outcome",
                 status.ok() ? "ok" : StatusCodeToString(status.code()));
  trace->End();
  SpanStore::Instance().Record(*trace, statement.text);
}

void NetServer::ResumeConnection(const std::shared_ptr<Connection>& conn) {
  FlushWrites(conn);
  ProcessInput(conn);  // pipelined requests buffered during execution
  UpdateInterest(conn);
}

void NetServer::SendHttpResponse(const std::shared_ptr<Connection>& conn,
                                 int code, std::string_view content_type,
                                 std::string_view body, bool keep_alive) {
  if (conn->closed) return;
  std::unique_lock<std::mutex> lock(conn->mu);
  if (!keep_alive) conn->close_after_flush = true;
  conn->outbuf += BuildHttpResponse(code, content_type, body, keep_alive);
  FlushAndUpdate(conn, lock);
}

void NetServer::SendFrame(const std::shared_ptr<Connection>& conn,
                          const Frame& frame, bool then_close) {
  if (conn->closed) return;
  std::unique_lock<std::mutex> lock(conn->mu);
  if (then_close) conn->close_after_flush = true;
  EncodeFrame(frame, &conn->outbuf);
  FlushAndUpdate(conn, lock);
}

bool NetServer::FlushLocked(Connection& conn) {
  while (conn.out_offset < conn.outbuf.size()) {
    const ssize_t n =
        ::write(conn.fd.get(), conn.outbuf.data() + conn.out_offset,
                conn.outbuf.size() - conn.out_offset);
    if (n > 0) {
      conn.out_offset += static_cast<size_t>(n);
      conn.last_activity = std::chrono::steady_clock::now();
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR)) {
      break;
    }
    // EPIPE, ECONNRESET, ...: nothing more can be delivered.
    conn.outbuf.clear();
    conn.out_offset = 0;
    conn.close_after_flush = true;
    return false;
  }
  if (conn.out_offset == conn.outbuf.size()) {
    conn.outbuf.clear();
    conn.out_offset = 0;
    return !conn.close_after_flush;
  }
  if (conn.out_offset > 1024 * 1024) {
    conn.outbuf.erase(0, conn.out_offset);
    conn.out_offset = 0;
  }
  return true;
}

void NetServer::FlushAndUpdate(const std::shared_ptr<Connection>& conn,
                               std::unique_lock<std::mutex>& lock) {
  if (FlushLocked(*conn)) {
    UpdateInterestLocked(*conn);
    return;
  }
  lock.unlock();
  CloseConnection(conn);
}

void NetServer::FlushWrites(const std::shared_ptr<Connection>& conn) {
  if (conn->closed) return;
  std::unique_lock<std::mutex> lock(conn->mu);
  FlushAndUpdate(conn, lock);
}

void NetServer::UpdateInterest(const std::shared_ptr<Connection>& conn) {
  if (conn->closed) return;
  std::lock_guard<std::mutex> lock(conn->mu);
  UpdateInterestLocked(*conn);
}

void NetServer::UpdateInterestLocked(Connection& conn) {
  // Input-side bound: while a statement executes, buffer at most one more
  // maximal request's worth of pipelined bytes.
  const size_t input_cap =
      std::max(options_.max_frame_payload_bytes + kFrameHeaderBytes,
               options_.http_limits.max_header_bytes +
                   options_.http_limits.max_request_line_bytes +
                   options_.http_limits.max_body_bytes) +
      4096;
  const size_t buffered_in = conn.inbuf.size() + conn.decoder.buffered_bytes();
  const size_t pending_out = conn.outbuf.size() - conn.out_offset;
  // Write-side backpressure with hysteresis: pause reads at the high
  // watermark, resume at half, so a slow reader oscillates gently instead
  // of toggling epoll per byte.
  if (!conn.reading_paused && pending_out >= options_.write_high_watermark) {
    conn.reading_paused = true;
  } else if (conn.reading_paused &&
             pending_out <= options_.write_high_watermark / 2) {
    conn.reading_paused = false;
  }
  const bool input_saturated = conn.processing && buffered_in >= input_cap;

  uint32_t want = 0;
  if (!conn.reading_paused && !input_saturated && !conn.close_after_flush) {
    want |= kEventReadable;
  }
  if (pending_out > 0) want |= kEventWritable;
  if (want != conn.interest) {
    if (loop_.SetInterest(conn.fd.get(), want).ok()) conn.interest = want;
  }
}

void NetServer::CloseConnection(const std::shared_ptr<Connection>& conn) {
  if (conn->closed) return;
  loop_.Deregister(conn->fd.get());
  connections_.erase(conn->fd.get());
  {
    std::lock_guard<std::mutex> lock(conn->mu);
    conn->closed = true;
    // A disconnect is a cancellation: no one is left to read the answer.
    if (conn->active_trace != nullptr) conn->active_trace->RequestCancel();
    conn->fd.Reset();
  }
  open_connections_.store(connections_.size(), std::memory_order_relaxed);
  TS_GAUGE_SET("server.open_connections",
               static_cast<int64_t>(connections_.size()));
}

void NetServer::SweepIdleConnections() {
  const auto now = std::chrono::steady_clock::now();
  const auto limit = std::chrono::milliseconds(options_.idle_timeout_ms);
  std::vector<std::shared_ptr<Connection>> idle;
  for (const auto& [fd, conn] : connections_) {
    std::lock_guard<std::mutex> lock(conn->mu);
    if (conn->processing || conn->outbuf.size() > conn->out_offset) continue;
    if (now - conn->last_activity >= limit) idle.push_back(conn);
  }
  for (const auto& conn : idle) CloseConnection(conn);
  loop_.AddTimer(std::chrono::milliseconds(1000),
                 [this] { SweepIdleConnections(); });
}

}  // namespace tempspec
