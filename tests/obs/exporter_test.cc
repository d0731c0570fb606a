// Telemetry exporter: Prometheus text rendering and the embedded HTTP
// server. The rendering tests work on hand-built snapshots; the server
// tests bind an ephemeral loopback port and speak minimal HTTP/1.0 over a
// raw socket (no client library, mirroring how the server itself is built).
#include "obs/exporter.h"

#include <arpa/inet.h>
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <fstream>
#include <memory>
#include <string>
#include <thread>

#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/span_store.h"
#include "testing.h"
#include "testing_json.h"

namespace tempspec {
namespace {

using testing::JsonParser;
using testing::ValidJson;

TEST(SanitizeMetricNameTest, MapsToPrometheusCharset) {
  EXPECT_EQ(SanitizeMetricName("tempspec.storage.wal_syncs"),
            "tempspec_storage_wal_syncs");
  EXPECT_EQ(SanitizeMetricName("already_fine:name"), "already_fine:name");
  EXPECT_EQ(SanitizeMetricName("9starts.with-digit"), "_9starts_with_digit");
  EXPECT_EQ(SanitizeMetricName(""), "_");
  EXPECT_EQ(SanitizeMetricName("sp ace/slash"), "sp_ace_slash");
}

TEST(RenderPrometheusTextTest, CountersAndGauges) {
  MetricsSnapshot snap;
  snap.counters["tempspec.a.hits"] = 42;
  snap.gauges["tempspec.b.depth"] = -7;
  const std::string text = RenderPrometheusText(snap);
  EXPECT_NE(text.find("# HELP tempspec_a_hits "), std::string::npos);
  EXPECT_NE(text.find("# TYPE tempspec_a_hits counter\n"), std::string::npos);
  EXPECT_NE(text.find("tempspec_a_hits 42\n"), std::string::npos);
  EXPECT_NE(text.find("# TYPE tempspec_b_depth gauge\n"), std::string::npos);
  EXPECT_NE(text.find("tempspec_b_depth -7\n"), std::string::npos);
}

TEST(RenderPrometheusTextTest, HistogramBucketsAreCumulativeAndClosed) {
  MetricsSnapshot snap;
  HistogramSnapshot h;
  h.count = 6;
  h.sum = 100;
  // Buckets as the registry snapshot produces them: (index, per-bucket count).
  h.buckets = {{1, 2}, {3, 3}, {5, 1}};
  snap.histograms["tempspec.lat"] = h;
  const std::string text = RenderPrometheusText(snap);
  // Cumulative counts at the log2 upper bounds: 2^1-1=1, 2^3-1=7, 2^5-1=31.
  EXPECT_NE(text.find("tempspec_lat_bucket{le=\"1\"} 2\n"), std::string::npos);
  EXPECT_NE(text.find("tempspec_lat_bucket{le=\"7\"} 5\n"), std::string::npos);
  EXPECT_NE(text.find("tempspec_lat_bucket{le=\"31\"} 6\n"), std::string::npos);
  EXPECT_NE(text.find("tempspec_lat_bucket{le=\"+Inf\"} 6\n"), std::string::npos);
  EXPECT_NE(text.find("tempspec_lat_sum 100\n"), std::string::npos);
  EXPECT_NE(text.find("tempspec_lat_count 6\n"), std::string::npos);
  EXPECT_NE(text.find("# TYPE tempspec_lat histogram\n"), std::string::npos);
}

TEST(RenderPrometheusTextTest, EveryRegisteredMetricAppears) {
  MetricsRegistry& reg = MetricsRegistry::Instance();
  reg.GetCounter("exporter_test.counter").Add(3);
  reg.GetGauge("exporter_test.gauge").Set(11);
  reg.GetHistogram("exporter_test.histogram").Observe(9);
  const MetricsSnapshot snap = reg.Scrape();
  const std::string text = RenderPrometheusText(snap);
  for (const auto& [name, value] : snap.counters) {
    (void)value;
    EXPECT_NE(text.find("# TYPE " + SanitizeMetricName(name) + " counter"),
              std::string::npos)
        << name;
  }
  for (const auto& [name, value] : snap.gauges) {
    (void)value;
    EXPECT_NE(text.find("# TYPE " + SanitizeMetricName(name) + " gauge"),
              std::string::npos)
        << name;
  }
  for (const auto& [name, h] : snap.histograms) {
    (void)h;
    EXPECT_NE(text.find("# TYPE " + SanitizeMetricName(name) + " histogram"),
              std::string::npos)
        << name;
  }
}

// -- HTTP server -------------------------------------------------------------

/// Minimal HTTP GET against 127.0.0.1:port; returns the full response.
std::string HttpGet(uint16_t port, const std::string& target) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return "";
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return "";
  }
  const std::string request =
      "GET " + target + " HTTP/1.0\r\nHost: localhost\r\n\r\n";
  size_t off = 0;
  while (off < request.size()) {
    const ssize_t n = ::write(fd, request.data() + off, request.size() - off);
    if (n <= 0) break;
    off += static_cast<size_t>(n);
  }
  std::string response;
  char buf[4096];
  ssize_t n;
  while ((n = ::read(fd, buf, sizeof(buf))) > 0) {
    response.append(buf, static_cast<size_t>(n));
  }
  ::close(fd);
  return response;
}

std::string Body(const std::string& response) {
  const size_t split = response.find("\r\n\r\n");
  return split == std::string::npos ? "" : response.substr(split + 4);
}

class ExporterServerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ExporterOptions options;
    options.port = 0;  // ephemeral
    exporter_ = std::make_unique<TelemetryExporter>(options);
    ASSERT_OK(exporter_->Start());
    ASSERT_TRUE(exporter_->running());
    ASSERT_NE(exporter_->port(), 0);
  }

  std::unique_ptr<TelemetryExporter> exporter_;
};

TEST_F(ExporterServerTest, HealthzServes) {
  const std::string response = HttpGet(exporter_->port(), "/healthz");
  EXPECT_NE(response.find("200 OK"), std::string::npos);
  EXPECT_EQ(Body(response), "ok\n");
}

TEST_F(ExporterServerTest, MetricsServesRegisteredMetricsInPrometheusFormat) {
  MetricsRegistry::Instance().GetCounter("exporter_test.http.hits").Add(5);
  const std::string response = HttpGet(exporter_->port(), "/metrics");
  EXPECT_NE(response.find("200 OK"), std::string::npos);
  EXPECT_NE(response.find("text/plain; version=0.0.4"), std::string::npos);
  EXPECT_NE(Body(response).find("exporter_test_http_hits 5"), std::string::npos);
}

TEST_F(ExporterServerTest, VarzServesValidJson) {
  const std::string response = HttpGet(exporter_->port(), "/varz");
  EXPECT_NE(response.find("200 OK"), std::string::npos);
  EXPECT_NE(response.find("application/json"), std::string::npos);
  std::string body = Body(response);
  if (!body.empty() && body.back() == '\n') body.pop_back();
  EXPECT_OK(ValidJson(body));
}

TEST_F(ExporterServerTest, VarzCarriesTheBuildConfigStamp) {
  const std::string body = Body(HttpGet(exporter_->port(), "/varz"));
  ASSERT_OK_AND_ASSIGN(testing::JsonValue v,
                       JsonParser::Parse(body.substr(0, body.find('\n'))));
  ASSERT_TRUE(v.has("build"));
  const testing::JsonValue& build = v.at("build");
  // The stamp must answer "what tree produced these numbers": every
  // compile-time toggle plus sanitizer and compiler identification.
  for (const char* key :
       {"metrics_enabled", "failpoints_enabled", "flightrecorder_enabled",
        "sanitizers", "compiler"}) {
    EXPECT_TRUE(build.has(key)) << key;
  }
}

TEST_F(ExporterServerTest, DebugEventsServesTheFlightRing) {
  TS_FLIGHT(FlightCategory::kWal, FlightCode::kWalAppend, 1, 2, "exporter");
  const std::string response = HttpGet(exporter_->port(), "/debug/events");
  EXPECT_NE(response.find("200 OK"), std::string::npos);
  const std::string body = Body(response);
  if (!FlightRecorderCompiledIn() &&
      FlightRecorder::Instance().head() == 0) {
    EXPECT_TRUE(body.empty()) << "compiled-out ring serves an empty page";
    return;
  }
  // Every line is one parseable flight event.
  size_t start = 0;
  size_t lines = 0;
  while (start < body.size()) {
    const size_t nl = body.find('\n', start);
    ASSERT_NE(nl, std::string::npos);
    ASSERT_OK_AND_ASSIGN(testing::JsonValue v,
                         JsonParser::Parse(body.substr(start, nl - start)));
    EXPECT_TRUE(v.has("seq"));
    EXPECT_TRUE(v.has("code"));
    start = nl + 1;
    ++lines;
  }
  EXPECT_GE(lines, 1u);
}

TEST_F(ExporterServerTest, DebugTracesServesRetainedSpans) {
  TraceContext span;
  span.Begin("exporter.test.span");
  SpanStore::Instance().Record(span);
  const std::string response = HttpGet(exporter_->port(), "/debug/traces");
  EXPECT_NE(response.find("200 OK"), std::string::npos);
  const std::string body = Body(response);
  bool found = false;
  size_t start = 0;
  while (start < body.size()) {
    const size_t nl = body.find('\n', start);
    ASSERT_NE(nl, std::string::npos);
    ASSERT_OK_AND_ASSIGN(testing::JsonValue v,
                         JsonParser::Parse(body.substr(start, nl - start)));
    EXPECT_TRUE(v.has("trace_id"));
    EXPECT_TRUE(v.has("unix_micros"));
    ASSERT_TRUE(v.has("trace"));
    if (v.at("trace_id").number == std::to_string(span.trace_id())) {
      EXPECT_EQ(v.at("trace").at("span").string, "exporter.test.span");
      found = true;
    }
    start = nl + 1;
  }
  EXPECT_TRUE(found) << "the span recorded above must be served";
}

TEST_F(ExporterServerTest, UnknownPathIs404AndQueryStringsAreStripped) {
  const std::string response = HttpGet(exporter_->port(), "/nope");
  EXPECT_NE(response.find("404"), std::string::npos);
  // The 404 body doubles as endpoint discovery: all five must be listed.
  const std::string body = Body(response);
  for (const char* endpoint :
       {"/metrics", "/varz", "/healthz", "/debug/events", "/debug/traces"}) {
    EXPECT_NE(body.find(endpoint), std::string::npos) << endpoint;
  }
  EXPECT_NE(HttpGet(exporter_->port(), "/healthz?x=1").find("200 OK"),
            std::string::npos);
}

TEST_F(ExporterServerTest, StopIsIdempotentAndDoublePortBindFails) {
  ExporterOptions clash;
  clash.port = exporter_->port();
  TelemetryExporter second(clash);
  EXPECT_NOT_OK(second.Start());
  exporter_->Stop();
  exporter_->Stop();
  EXPECT_FALSE(exporter_->running());
}

/// Sends raw bytes to the exporter and returns the full response (the
/// malformed-request tests speak broken HTTP on purpose).
std::string RawRequest(uint16_t port, const std::string& bytes) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return "";
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return "";
  }
  size_t off = 0;
  while (off < bytes.size()) {
    const ssize_t n = ::write(fd, bytes.data() + off, bytes.size() - off);
    if (n <= 0) break;
    off += static_cast<size_t>(n);
  }
  ::shutdown(fd, SHUT_WR);
  std::string response;
  char buf[4096];
  ssize_t n;
  while ((n = ::read(fd, buf, sizeof(buf))) > 0) {
    response.append(buf, static_cast<size_t>(n));
  }
  ::close(fd);
  return response;
}

// The exporter inherits the NetServer request limits: a request line past
// the bound is rejected with 431, not buffered without bound (the old
// serial exporter accepted arbitrarily long request lines).
TEST_F(ExporterServerTest, OversizedRequestLineRejectedWith431) {
  const std::string target = "/" + std::string(10000, 'a');
  const std::string response = RawRequest(
      exporter_->port(), "GET " + target + " HTTP/1.0\r\n\r\n");
  EXPECT_NE(response.find("431"), std::string::npos) << response;
}

TEST_F(ExporterServerTest, OversizedHeaderBlockRejectedWith431) {
  std::string request = "GET /healthz HTTP/1.0\r\n";
  request += "X-Padding: " + std::string(20000, 'b') + "\r\n\r\n";
  const std::string response = RawRequest(exporter_->port(), request);
  EXPECT_NE(response.find("431"), std::string::npos) << response;
}

TEST_F(ExporterServerTest, MalformedRequestLineRejectedWith400) {
  const std::string response =
      RawRequest(exporter_->port(), "COMPLETE GARBAGE\r\n\r\n");
  EXPECT_NE(response.find("400"), std::string::npos) << response;
}

TEST_F(ExporterServerTest, UnsupportedHttpVersionRejectedWith505) {
  const std::string response =
      RawRequest(exporter_->port(), "GET /healthz HTTP/2.0\r\n\r\n");
  EXPECT_NE(response.find("505"), std::string::npos) << response;
}

TEST_F(ExporterServerTest, NonGetMethodsRejected) {
  const std::string response = RawRequest(
      exporter_->port(),
      "PUT /metrics HTTP/1.0\r\nContent-Length: 0\r\n\r\n");
  EXPECT_NE(response.find("405"), std::string::npos) << response;
}

// The old exporter handled connections serially: an idle client blocked
// every scrape behind it. The event-loop server must answer a scrape while
// another connection sits open and silent.
TEST_F(ExporterServerTest, ScrapesAreNotBlockedByAnIdleConnection) {
  const int idle = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(idle, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(exporter_->port());
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  ASSERT_EQ(::connect(idle, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  // The idle connection sends nothing; the scrape must still answer.
  const std::string response = HttpGet(exporter_->port(), "/healthz");
  EXPECT_NE(response.find("200 OK"), std::string::npos);
  ::close(idle);
}

TEST(ExporterSnapshotTest, PeriodicWriterAppendsValidJsonLines) {
  const std::string path =
      ::testing::TempDir() + "/tempspec_exporter_snapshot.jsonl";
  std::remove(path.c_str());
  ExporterOptions options;
  options.port = 0;
  options.snapshot_path = path;
  options.snapshot_period_ms = 30;
  {
    TelemetryExporter exporter(options);
    ASSERT_OK(exporter.Start());
    // First snapshot is written on startup; wait for at least one more.
    std::this_thread::sleep_for(std::chrono::milliseconds(120));
  }
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::string line;
  size_t lines = 0;
  while (std::getline(in, line)) {
    ++lines;
    ASSERT_OK_AND_ASSIGN(testing::JsonValue v, JsonParser::Parse(line));
    EXPECT_TRUE(v.is_object());
    EXPECT_TRUE(v.has("unix_micros"));
    EXPECT_TRUE(v.has("metrics"));
  }
  EXPECT_GE(lines, 2u);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace tempspec
