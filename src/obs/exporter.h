// Embedded telemetry exporter: the operable face of the metrics registry.
//
// PR 4 gave the engine an in-process registry; this module makes it
// scrapeable without linking any HTTP library. A TelemetryExporter wraps a
// NetServer (net/server.h) — the same event-loop HTTP stack the query
// daemon uses, with its request-line/header/body limits and concurrent
// connection handling — bound to a loopback/interface address, serving:
//
//   /metrics       — the registry rendered in Prometheus text exposition
//                    format (counters, gauges, and the log2 histograms as
//                    cumulative `_bucket{le="..."}` series, `_sum`/`_count`)
//   /varz          — {"build": BuildConfigJson(), "metrics": registry JSON
//                    snapshot}: the build-config stamp plus the metrics, so
//                    live processes are never compared across unlike trees
//   /healthz       — "ok" (liveness; serves even when the registry is empty)
//   /debug/events  — the flight-recorder ring as JSONL (obs/flight_recorder.h)
//   /debug/traces  — the span store's sampled spans as JSONL
//                    (obs/span_store.h)
//   /debug/health  — declared SLOs re-evaluated now, as JSON (obs/slo.h)
//   /metrics/history — the metrics time-series ring as JSONL (obs/history.h)
//
// For headless runs (benches, batch jobs) the exporter can also append a
// periodic JSONL snapshot line to a file, so a run leaves a scrape history
// behind even when nothing polled it.
//
// The exporter is control-plane code: it is only ever started explicitly
// (or via MaybeStartFromEnv) and costs nothing when not running.
#ifndef TEMPSPEC_OBS_EXPORTER_H_
#define TEMPSPEC_OBS_EXPORTER_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>

#include "obs/metrics.h"
#include "util/result.h"

namespace tempspec {

/// \brief Rewrites a registry metric name into the Prometheus name charset
/// `[a-zA-Z_:][a-zA-Z0-9_:]*`: every other character (the registry's dots
/// included) becomes '_', and a leading digit gains a '_' prefix.
std::string SanitizeMetricName(const std::string& name);

/// \brief Renders a scrape in the Prometheus text exposition format: one
/// `# HELP` + `# TYPE` header per metric, counters/gauges as single samples,
/// histograms as cumulative `_bucket{le="..."}` series (log2 upper bounds,
/// closed by `le="+Inf"`) plus `_sum` and `_count`.
std::string RenderPrometheusText(const MetricsSnapshot& snapshot);

/// \brief Renders the labeled per-query latency family as one
/// `tempspec_query_latency` histogram per {relation, kind, protocol} series
/// (cumulative `_bucket{...,le="..."}` plus labeled `_sum`/`_count`). The
/// /metrics endpoint appends this after the registry text.
std::string RenderLabeledPrometheusText(
    const std::vector<LabeledSeries>& series);

/// \brief Escapes a Prometheus label value (backslash, quote, newline).
std::string EscapeLabelValue(const std::string& value);

/// \brief Construction options for the exporter.
struct ExporterOptions {
  /// Interface to bind; loopback by default (expose deliberately).
  std::string bind_address = "127.0.0.1";
  /// TCP port; 0 picks an ephemeral port (read it back via port()).
  uint16_t port = 9464;  // the conventional Prometheus exporter range
  /// When non-empty, a writer thread appends one JSONL line
  /// {"unix_micros":...,"metrics":{...}} to this path every period.
  std::string snapshot_path;
  uint64_t snapshot_period_ms = 10000;
};

/// \brief Serves the metrics registry over HTTP until stopped. One instance
/// per process is typical; nothing enforces that. Thread-safe: Start/Stop
/// may race with scrapes (the server thread only reads the registry).
class TelemetryExporter {
 public:
  explicit TelemetryExporter(ExporterOptions options = {});
  ~TelemetryExporter();

  TelemetryExporter(const TelemetryExporter&) = delete;
  TelemetryExporter& operator=(const TelemetryExporter&) = delete;

  /// \brief Binds, listens, and starts the server (and, when configured,
  /// the snapshot writer) thread. Fails on bind/listen errors (port in
  /// use, bad address) and on double Start.
  Status Start();

  /// \brief Stops the threads and closes the socket. Idempotent.
  void Stop();

  bool running() const { return running_.load(std::memory_order_acquire); }

  /// \brief The bound port (resolves port 0 after Start).
  uint16_t port() const { return bound_port_.load(std::memory_order_acquire); }

  const ExporterOptions& options() const { return options_; }

  /// \brief Environment activation for embedding binaries (examples,
  /// benches): when TEMPSPEC_EXPORTER_PORT is set, starts an exporter on
  /// that port (0 = ephemeral) and returns it; otherwise returns null.
  /// Honors TEMPSPEC_EXPORTER_ADDR (bind address), TEMPSPEC_EXPORTER_PORTFILE
  /// (writes the bound port to this path — how scripts find an ephemeral
  /// port), TEMPSPEC_EXPORTER_SNAPSHOT and TEMPSPEC_EXPORTER_SNAPSHOT_MS
  /// (periodic JSONL writer). Also applies SpanStore::ConfigureFromEnv()
  /// so one call turns a binary into a full telemetry endpoint. On Start
  /// failure prints to stderr and returns null (telemetry must never take
  /// the host process down).
  static std::unique_ptr<TelemetryExporter> MaybeStartFromEnv();

  /// \brief Blocks for TEMPSPEC_EXPORTER_LINGER_MS milliseconds (0/unset =
  /// returns immediately). Embedding binaries call this last so a smoke
  /// script can scrape a process that would otherwise exit instantly.
  static void LingerFromEnv();

 private:
  void WriteSnapshots();

  ExporterOptions options_;
  std::atomic<bool> running_{false};
  std::atomic<bool> stopping_{false};
  std::atomic<uint16_t> bound_port_{0};
  std::unique_ptr<class NetServer> server_;
  std::thread snapshot_thread_;
};

}  // namespace tempspec

#endif  // TEMPSPEC_OBS_EXPORTER_H_
