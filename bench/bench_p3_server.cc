// P3 — Network query plane throughput and latency.
//
// Boots the real stack in-process — QueryService (in-memory) behind a
// NetServer on an ephemeral loopback port — and drives it over TCP like a
// client would, so every number includes the full path: socket, protocol
// parse, admission, worker handoff, statement execution, response encode,
// write-back.
//
//   BinaryQueryPipelined  — the headline: one connection, TEMPSPEC_P3_PIPELINE
//                           CURRENT queries in flight back-to-back
//                           (requests_per_sec counter; the acceptance gate
//                           is >= 10k req/s on the binary protocol).
//   BinaryPingPipelined   — same shape, kPing frames: the wire + event-loop
//                           ceiling with zero execution cost.
//   BinaryQuerySequential — one query per round-trip: per-request latency
//                           (the JSON's median/p99 are the latency numbers).
//   BinaryInsertSequential— the write path end to end (statement parse,
//                           single-writer lock, WAL-less in-memory append).
//   HttpQuerySequential   — the same CURRENT over keep-alive HTTP POST, for
//                           the protocol-overhead comparison.
//
// Every registration reports wall-clock rates (UseRealTime): the client
// thread spends most of each iteration blocked in read(), so rates over its
// CPU time would overstate throughput several-fold.
//
// Knobs: TEMPSPEC_P3_ROWS (relation population, default 16),
// TEMPSPEC_P3_PIPELINE (pipeline depth, default 64).
#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>

#include "bench_common.h"
#include "catalog/query_service.h"
#include "net/frame.h"
#include "net/server.h"

using namespace tempspec;
using tempspec::bench::Require;

namespace {

int64_t EnvOr(const char* name, int64_t fallback) {
  const char* env = std::getenv(name);
  const int64_t parsed = env != nullptr ? std::atoll(env) : 0;
  return parsed > 0 ? parsed : fallback;
}

int64_t Rows() {
  static const int64_t n = EnvOr("TEMPSPEC_P3_ROWS", 16);
  return n;
}

int64_t PipelineDepth() {
  static const int64_t n = EnvOr("TEMPSPEC_P3_PIPELINE", 64);
  return n;
}

// Distinct valid time per insert — i seconds past 1992-02-03 00:00:00,
// wrapping within the day so any iteration count stays a legal timestamp.
std::string ValidAt(int64_t i) {
  const int64_t s = i % 86400;
  char buf[40];
  std::snprintf(buf, sizeof(buf), "'1992-02-03 %02d:%02d:%02d'",
                static_cast<int>(s / 3600), static_cast<int>((s / 60) % 60),
                static_cast<int>(s % 60));
  return buf;
}

/// The in-process server under test, shared by every benchmark.
struct ServerUnderTest {
  QueryService service{QueryServiceOptions{}};
  std::unique_ptr<NetServer> server;

  ServerUnderTest() {
    Require(service.Open());
    Require(service
                .Execute(
                    "CREATE EVENT RELATION bench (sensor INT64 KEY, "
                    "v DOUBLE) GRANULARITY 1s",
                    nullptr)
                .status());
    // The write benchmark appends here, so the read benchmarks' `bench`
    // population stays fixed no matter how many insert iterations ran.
    Require(service
                .Execute(
                    "CREATE EVENT RELATION bench_w (sensor INT64 KEY, "
                    "v DOUBLE) GRANULARITY 1s",
                    nullptr)
                .status());
    for (int64_t i = 0; i < Rows(); ++i) {
      Require(service
                  .Execute("INSERT INTO bench OBJECT 1 VALUES (1, " +
                               std::to_string(i) + ".0) VALID AT " +
                               ValidAt(i),
                           nullptr)
                  .status());
    }
    ServerOptions options;
    options.bind_address = "127.0.0.1";
    options.port = 0;
    options.max_inflight = 8;
    options.worker_threads = 2;
    server = std::make_unique<NetServer>(std::move(options));
    server->SetStatementHandler(
        [this](const std::string& statement, TraceContext* trace) {
          return service.Execute(statement, trace);
        });
    Require(server->Start());
  }
};

ServerUnderTest& Server() {
  static ServerUnderTest* s = new ServerUnderTest();
  return *s;
}

/// Blocking loopback client; dies via Require on any socket error so the
/// bench never times a failure path.
class BenchClient {
 public:
  BenchClient() {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    Require(fd_ >= 0 ? Status::OK() : Status::IOError("socket"));
    const int one = 1;
    ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(Server().server->port());
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    Require(::connect(fd_, reinterpret_cast<sockaddr*>(&addr),
                      sizeof(addr)) == 0
                ? Status::OK()
                : Status::IOError("connect"));
  }
  ~BenchClient() {
    if (fd_ >= 0) ::close(fd_);
  }

  void Send(const std::string& bytes) {
    size_t sent = 0;
    while (sent < bytes.size()) {
      const ssize_t n = ::write(fd_, bytes.data() + sent, bytes.size() - sent);
      Require(n > 0 ? Status::OK() : Status::IOError("write"));
      sent += static_cast<size_t>(n);
    }
  }

  /// Reads complete frames until `count` have arrived; every frame must be
  /// the expected type.
  void ExpectFrames(int64_t count, FrameType want) {
    int64_t seen = 0;
    while (seen < count) {
      Result<std::optional<Frame>> next = decoder_.Next();
      Require(next.status());
      if (next.ValueOrDie().has_value()) {
        Require(next.ValueOrDie()->type == want
                    ? Status::OK()
                    : Status::Internal("unexpected frame type ",
                                       static_cast<int>(
                                           next.ValueOrDie()->type)));
        ++seen;
        continue;
      }
      char buf[65536];
      const ssize_t n = ::read(fd_, buf, sizeof(buf));
      Require(n > 0 ? Status::OK() : Status::IOError("read"));
      decoder_.Feed(buf, static_cast<size_t>(n));
    }
  }

  /// One HTTP POST /query round-trip on the (keep-alive) connection.
  void HttpQuery(const std::string& statement) {
    Send("POST /query HTTP/1.1\r\nHost: b\r\nContent-Length: " +
         std::to_string(statement.size()) + "\r\n\r\n" + statement);
    // Headers, then Content-Length body bytes.
    while (http_buf_.find("\r\n\r\n") == std::string::npos) Fill();
    const size_t header_end = http_buf_.find("\r\n\r\n");
    Require(http_buf_.compare(0, 12, "HTTP/1.1 200") == 0
                ? Status::OK()
                : Status::Internal("http error: ",
                                   http_buf_.substr(0, header_end)));
    const size_t at = http_buf_.find("Content-Length:");
    Require(at != std::string::npos && at < header_end
                ? Status::OK()
                : Status::Internal("no Content-Length"));
    const size_t body = header_end + 4 +
                        static_cast<size_t>(std::atoll(
                            http_buf_.c_str() + at + 15));
    while (http_buf_.size() < body) Fill();
    http_buf_.erase(0, body);
  }

 private:
  void Fill() {
    char buf[65536];
    const ssize_t n = ::read(fd_, buf, sizeof(buf));
    Require(n > 0 ? Status::OK() : Status::IOError("read"));
    http_buf_.append(buf, static_cast<size_t>(n));
  }

  int fd_ = -1;
  FrameDecoder decoder_;
  std::string http_buf_;
};

std::string EncodedQueryBatch(const std::string& statement, int64_t depth) {
  Frame frame;
  frame.type = FrameType::kQuery;
  frame.payload = statement;
  std::string wire;
  for (int64_t i = 0; i < depth; ++i) EncodeFrame(frame, &wire);
  return wire;
}

void BM_BinaryQueryPipelined(benchmark::State& state) {
  BenchClient client;
  const int64_t depth = PipelineDepth();
  const std::string batch = EncodedQueryBatch("CURRENT bench", depth);
  int64_t requests = 0;
  for (auto _ : state) {
    client.Send(batch);
    client.ExpectFrames(depth, FrameType::kResult);
    requests += depth;
  }
  state.SetItemsProcessed(requests);
  state.counters["requests_per_sec"] =
      benchmark::Counter(static_cast<double>(requests),
                         benchmark::Counter::kIsRate);
  state.counters["pipeline_depth"] = static_cast<double>(depth);
  state.counters["rows"] = static_cast<double>(Rows());
}
BENCHMARK(BM_BinaryQueryPipelined)
    ->Unit(benchmark::kMicrosecond)
    ->UseRealTime();

void BM_BinaryPingPipelined(benchmark::State& state) {
  BenchClient client;
  const int64_t depth = PipelineDepth();
  Frame ping;
  ping.type = FrameType::kPing;
  ping.payload = "p";
  std::string batch;
  for (int64_t i = 0; i < depth; ++i) EncodeFrame(ping, &batch);
  int64_t requests = 0;
  for (auto _ : state) {
    client.Send(batch);
    client.ExpectFrames(depth, FrameType::kPong);
    requests += depth;
  }
  state.SetItemsProcessed(requests);
  state.counters["requests_per_sec"] =
      benchmark::Counter(static_cast<double>(requests),
                         benchmark::Counter::kIsRate);
}
BENCHMARK(BM_BinaryPingPipelined)
    ->Unit(benchmark::kMicrosecond)
    ->UseRealTime();

void BM_BinaryQuerySequential(benchmark::State& state) {
  BenchClient client;
  const std::string one = EncodedQueryBatch("CURRENT bench", 1);
  int64_t requests = 0;
  for (auto _ : state) {
    client.Send(one);
    client.ExpectFrames(1, FrameType::kResult);
    ++requests;
  }
  state.SetItemsProcessed(requests);
  state.counters["requests_per_sec"] =
      benchmark::Counter(static_cast<double>(requests),
                         benchmark::Counter::kIsRate);
}
BENCHMARK(BM_BinaryQuerySequential)
    ->Unit(benchmark::kMicrosecond)
    ->UseRealTime();

void BM_BinaryInsertSequential(benchmark::State& state) {
  BenchClient client;
  int64_t requests = 0;
  for (auto _ : state) {
    client.Send(EncodedQueryBatch(
        "INSERT INTO bench_w OBJECT 2 VALUES (2, 1.0) VALID AT " +
            ValidAt(requests),
        1));
    client.ExpectFrames(1, FrameType::kResult);
    ++requests;
  }
  state.SetItemsProcessed(requests);
  state.counters["requests_per_sec"] =
      benchmark::Counter(static_cast<double>(requests),
                         benchmark::Counter::kIsRate);
}
BENCHMARK(BM_BinaryInsertSequential)
    ->Unit(benchmark::kMicrosecond)
    ->UseRealTime();

void BM_HttpQuerySequential(benchmark::State& state) {
  BenchClient client;
  int64_t requests = 0;
  for (auto _ : state) {
    client.HttpQuery("CURRENT bench");
    ++requests;
  }
  state.SetItemsProcessed(requests);
  state.counters["requests_per_sec"] =
      benchmark::Counter(static_cast<double>(requests),
                         benchmark::Counter::kIsRate);
}
BENCHMARK(BM_HttpQuerySequential)
    ->Unit(benchmark::kMicrosecond)
    ->UseRealTime();

}  // namespace

TEMPSPEC_BENCH_MAIN("p3_server")
