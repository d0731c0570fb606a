#include "obs/exporter.h"

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <thread>

#include "net/server.h"
#include "net/telemetry_endpoints.h"
#include "obs/flight_recorder.h"
#include "obs/span_store.h"

namespace tempspec {

namespace {

bool IsNameStartChar(char c) {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c == '_' || c == ':';
}

bool IsNameChar(char c) { return IsNameStartChar(c) || (c >= '0' && c <= '9'); }

// HELP text escaping per the exposition format: backslash and newline only.
std::string EscapeHelp(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    if (c == '\\') {
      out += "\\\\";
    } else if (c == '\n') {
      out += "\\n";
    } else {
      out += c;
    }
  }
  return out;
}

void AppendHeader(std::string& out, const std::string& name,
                  const std::string& original, const char* type) {
  out += "# HELP " + name + " tempspec metric " + EscapeHelp(original) + "\n";
  out += "# TYPE " + name + " " + type + "\n";
}

uint64_t NowUnixMicros() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::system_clock::now().time_since_epoch())
          .count());
}

const char* GetEnv(const char* name) { return std::getenv(name); }

uint64_t EnvU64(const char* name, uint64_t fallback) {
  const char* v = GetEnv(name);
  if (v == nullptr || *v == '\0') return fallback;
  char* end = nullptr;
  unsigned long long parsed = std::strtoull(v, &end, 10);
  if (end == v) return fallback;
  return static_cast<uint64_t>(parsed);
}

}  // namespace

std::string SanitizeMetricName(const std::string& name) {
  std::string out;
  out.reserve(name.size() + 1);
  if (name.empty()) return "_";
  if (!IsNameStartChar(name[0])) out += '_';
  for (char c : name) {
    out += IsNameChar(c) ? c : '_';
  }
  return out;
}

std::string RenderPrometheusText(const MetricsSnapshot& snapshot) {
  std::string out;
  for (const auto& [name, value] : snapshot.counters) {
    const std::string prom = SanitizeMetricName(name);
    AppendHeader(out, prom, name, "counter");
    out += prom + " " + std::to_string(value) + "\n";
  }
  for (const auto& [name, value] : snapshot.gauges) {
    const std::string prom = SanitizeMetricName(name);
    AppendHeader(out, prom, name, "gauge");
    out += prom + " " + std::to_string(value) + "\n";
  }
  for (const auto& [name, hist] : snapshot.histograms) {
    const std::string prom = SanitizeMetricName(name);
    AppendHeader(out, prom, name, "histogram");
    uint64_t cumulative = 0;
    for (const auto& [bucket, count] : hist.buckets) {
      cumulative += count;
      out += prom + "_bucket{le=\"" +
             std::to_string(HistogramBucketUpperBound(bucket)) + "\"} " +
             std::to_string(cumulative) + "\n";
    }
    out += prom + "_bucket{le=\"+Inf\"} " + std::to_string(hist.count) + "\n";
    out += prom + "_sum " + std::to_string(hist.sum) + "\n";
    out += prom + "_count " + std::to_string(hist.count) + "\n";
  }
  return out;
}

std::string EscapeLabelValue(const std::string& value) {
  std::string out;
  out.reserve(value.size());
  for (char c : value) {
    if (c == '\\') {
      out += "\\\\";
    } else if (c == '"') {
      out += "\\\"";
    } else if (c == '\n') {
      out += "\\n";
    } else {
      out += c;
    }
  }
  return out;
}

std::string RenderLabeledPrometheusText(
    const std::vector<LabeledSeries>& series) {
  if (series.empty()) return "";
  const char* kFamily = "tempspec_query_latency";
  std::string out;
  out += std::string("# HELP ") + kFamily +
         " per-query wall micros by relation, specialization kind, and "
         "protocol\n";
  out += std::string("# TYPE ") + kFamily + " histogram\n";
  for (const LabeledSeries& s : series) {
    const std::string labels = "relation=\"" + EscapeLabelValue(s.relation) +
                               "\",kind=\"" + EscapeLabelValue(s.kind) +
                               "\",protocol=\"" + EscapeLabelValue(s.protocol) +
                               "\"";
    uint64_t cumulative = 0;
    for (const auto& [bucket, count] : s.latency.buckets) {
      cumulative += count;
      out += std::string(kFamily) + "_bucket{" + labels + ",le=\"" +
             std::to_string(HistogramBucketUpperBound(bucket)) + "\"} " +
             std::to_string(cumulative) + "\n";
    }
    out += std::string(kFamily) + "_bucket{" + labels + ",le=\"+Inf\"} " +
           std::to_string(s.latency.count) + "\n";
    out += std::string(kFamily) + "_sum{" + labels + "} " +
           std::to_string(s.latency.sum) + "\n";
    out += std::string(kFamily) + "_count{" + labels + "} " +
           std::to_string(s.latency.count) + "\n";
  }
  return out;
}

TelemetryExporter::TelemetryExporter(ExporterOptions options)
    : options_(std::move(options)) {}

TelemetryExporter::~TelemetryExporter() { Stop(); }

Status TelemetryExporter::Start() {
  if (running_.load(std::memory_order_acquire)) {
    return Status::AlreadyExists("exporter already running on port ",
                                 bound_port_.load());
  }
  ServerOptions server_options;
  server_options.bind_address = options_.bind_address;
  server_options.port = options_.port;
  // Telemetry handlers run on the loop thread; the workers only exist for
  // statement execution, which a bare exporter never sees.
  server_options.worker_threads = 1;
  auto server = std::make_unique<NetServer>(std::move(server_options));
  RegisterTelemetryEndpoints(server.get());
  TS_RETURN_NOT_OK(server->Start());

  server_ = std::move(server);
  bound_port_.store(server_->port(), std::memory_order_release);
  stopping_.store(false, std::memory_order_release);
  running_.store(true, std::memory_order_release);
  if (!options_.snapshot_path.empty() && options_.snapshot_period_ms > 0) {
    snapshot_thread_ = std::thread([this] { WriteSnapshots(); });
  }
  return Status::OK();
}

void TelemetryExporter::Stop() {
  if (!running_.load(std::memory_order_acquire)) return;
  stopping_.store(true, std::memory_order_release);
  if (snapshot_thread_.joinable()) snapshot_thread_.join();
  server_->Stop();
  server_.reset();
  running_.store(false, std::memory_order_release);
}

void TelemetryExporter::WriteSnapshots() {
  // Sleep in short slices so Stop() never waits a full period.
  uint64_t elapsed_ms = options_.snapshot_period_ms;  // write once at startup
  while (!stopping_.load(std::memory_order_acquire)) {
    if (elapsed_ms >= options_.snapshot_period_ms) {
      elapsed_ms = 0;
      std::ofstream out(options_.snapshot_path, std::ios::app);
      if (out) {
        out << "{\"unix_micros\":" << NowUnixMicros() << ",\"metrics\":"
            << MetricsRegistry::Instance().Scrape().ToJson() << "}\n";
      }
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    elapsed_ms += 20;
  }
}

std::unique_ptr<TelemetryExporter> TelemetryExporter::MaybeStartFromEnv() {
  SpanStore::Instance().ConfigureFromEnv();
  FlightRecorder::MaybeInstallFromEnv();
  const char* port_env = GetEnv("TEMPSPEC_EXPORTER_PORT");
  if (port_env == nullptr || *port_env == '\0') return nullptr;

  ExporterOptions options;
  options.port = static_cast<uint16_t>(EnvU64("TEMPSPEC_EXPORTER_PORT", 9464));
  if (const char* addr = GetEnv("TEMPSPEC_EXPORTER_ADDR")) {
    if (*addr != '\0') options.bind_address = addr;
  }
  if (const char* snap = GetEnv("TEMPSPEC_EXPORTER_SNAPSHOT")) {
    options.snapshot_path = snap;
  }
  options.snapshot_period_ms =
      EnvU64("TEMPSPEC_EXPORTER_SNAPSHOT_MS", options.snapshot_period_ms);

  auto exporter = std::make_unique<TelemetryExporter>(std::move(options));
  Status s = exporter->Start();
  if (!s.ok()) {
    std::fprintf(stderr, "tempspec exporter disabled: %s\n",
                 s.ToString().c_str());
    return nullptr;
  }
  if (const char* portfile = GetEnv("TEMPSPEC_EXPORTER_PORTFILE")) {
    if (*portfile != '\0') {
      std::ofstream out(portfile, std::ios::trunc);
      out << exporter->port() << "\n";
    }
  }
  return exporter;
}

void TelemetryExporter::LingerFromEnv() {
  uint64_t linger_ms = EnvU64("TEMPSPEC_EXPORTER_LINGER_MS", 0);
  if (linger_ms > 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(linger_ms));
  }
}

}  // namespace tempspec
