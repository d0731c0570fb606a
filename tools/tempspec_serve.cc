// tempspec_serve: the network query daemon.
//
// One process serving, on a single port:
//   - POST /query            query_lang / DDL statements over HTTP
//   - TSP1 binary frames     the same statements over the frame protocol
//                            (net/frame.h), with optional per-query
//                            deadlines in the frame header
//   - /metrics /metrics/history /varz /healthz /debug/events /debug/traces
//     /debug/health          the telemetry plane (net/telemetry_endpoints.h)
//
// Statements execute against a QueryService (catalog/query_service.h): a
// data directory holds schemas.sql plus one backlog directory per relation,
// so killing the daemon and restarting it recovers both schemas and data
// through the WAL.
//
// Flags (each with a TEMPSPEC_SERVE_* environment fallback):
//   --addr=A                bind address        (TEMPSPEC_SERVE_ADDR, 127.0.0.1)
//   --port=N                port, 0 = ephemeral (TEMPSPEC_SERVE_PORT, 7437)
//   --data-dir=D            persistence root    (TEMPSPEC_SERVE_DATA_DIR,
//                                                empty = in-memory)
//   --portfile=P            write the bound port here (TEMPSPEC_SERVE_PORTFILE)
//   --max-inflight=N        admission-control cap     (TEMPSPEC_SERVE_MAX_INFLIGHT)
//   --workers=N             statement worker threads  (TEMPSPEC_SERVE_WORKERS)
//   --default-deadline-ms=N applied when a request has none, 0 = unlimited
//   --max-deadline-ms=N     clamp for client deadlines, 0 = no clamp
//   --history-ms=N          metrics time-series sampling period; 0 disables
//                           (TEMPSPEC_SERVE_HISTORY_MS). The sampler tick
//                           also drives the SLO watchdog.
//   --slo=r=ms,...          declared p99 objectives per relation, e.g.
//                           --slo=ledger=50,sessions=20
//                           (TEMPSPEC_SERVE_SLO); surfaced via
//                           /debug/health and SHOW HEALTH
//
// Every request span is offered to the span store (obs/span_store.h):
// TEMPSPEC_SLOWLOG_MICROS and TEMPSPEC_SLOWLOG_PATH set its slow view (SHOW
// SLOW QUERIES, the JSONL sink), TEMPSPEC_TRACE_SAMPLE its sampled view
// (SHOW TRACES, /debug/traces), and TEMPSPEC_TRACE_CAPACITY the spans kept
// per view.
//
// SIGINT/SIGTERM stop the daemon gracefully: in-flight statements are
// cancelled through their deadlines' TraceContexts, completions drain, and
// the storage layer is left consistent. TEMPSPEC_FLIGHT_DUMP=path installs
// the fatal-signal flight-recorder dump (obs/flight_recorder.h), so even a
// crash leaves a black-box trace behind.
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>

#include "catalog/query_service.h"
#include "net/server.h"
#include "net/telemetry_endpoints.h"
#include "obs/flight_recorder.h"
#include "obs/history.h"
#include "obs/slo.h"
#include "obs/span_store.h"

namespace {

volatile std::sig_atomic_t g_stop = 0;

void HandleStopSignal(int) { g_stop = 1; }

const char* EnvOr(const char* name, const char* fallback) {
  const char* v = std::getenv(name);
  return (v != nullptr && *v != '\0') ? v : fallback;
}

uint64_t ParseU64Or(const char* text, uint64_t fallback) {
  if (text == nullptr || *text == '\0') return fallback;
  char* end = nullptr;
  const unsigned long long parsed = std::strtoull(text, &end, 10);
  return end == text ? fallback : static_cast<uint64_t>(parsed);
}

struct ServeConfig {
  std::string addr = "127.0.0.1";
  uint16_t port = 7437;
  std::string data_dir;
  std::string portfile;
  uint64_t max_inflight = 8;
  uint64_t workers = 2;
  uint64_t default_deadline_ms = 0;
  uint64_t max_deadline_ms = 60 * 1000;
  uint64_t history_ms = 0;
  std::string slo_spec;
};

void Usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s [--addr=A] [--port=N] [--data-dir=D] [--portfile=P]\n"
      "          [--max-inflight=N] [--workers=N]\n"
      "          [--default-deadline-ms=N] [--max-deadline-ms=N]\n"
      "          [--history-ms=N] [--slo=relation=p99ms,...]\n",
      argv0);
}

bool ParseArgs(int argc, char** argv, ServeConfig* config) {
  config->addr = EnvOr("TEMPSPEC_SERVE_ADDR", config->addr.c_str());
  config->port = static_cast<uint16_t>(
      ParseU64Or(std::getenv("TEMPSPEC_SERVE_PORT"), config->port));
  config->data_dir = EnvOr("TEMPSPEC_SERVE_DATA_DIR", "");
  config->portfile = EnvOr("TEMPSPEC_SERVE_PORTFILE", "");
  config->max_inflight = ParseU64Or(
      std::getenv("TEMPSPEC_SERVE_MAX_INFLIGHT"), config->max_inflight);
  config->workers =
      ParseU64Or(std::getenv("TEMPSPEC_SERVE_WORKERS"), config->workers);
  config->history_ms = ParseU64Or(std::getenv("TEMPSPEC_SERVE_HISTORY_MS"),
                                  config->history_ms);
  config->slo_spec = EnvOr("TEMPSPEC_SERVE_SLO", "");

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const size_t eq = arg.find('=');
    const std::string key = arg.substr(0, eq);
    const std::string value =
        eq == std::string::npos ? "" : arg.substr(eq + 1);
    if (key == "--addr") {
      config->addr = value;
    } else if (key == "--port") {
      config->port = static_cast<uint16_t>(ParseU64Or(value.c_str(), 0));
    } else if (key == "--data-dir") {
      config->data_dir = value;
    } else if (key == "--portfile") {
      config->portfile = value;
    } else if (key == "--max-inflight") {
      config->max_inflight = ParseU64Or(value.c_str(), 8);
    } else if (key == "--workers") {
      config->workers = ParseU64Or(value.c_str(), 2);
    } else if (key == "--default-deadline-ms") {
      config->default_deadline_ms = ParseU64Or(value.c_str(), 0);
    } else if (key == "--max-deadline-ms") {
      config->max_deadline_ms = ParseU64Or(value.c_str(), 0);
    } else if (key == "--history-ms") {
      config->history_ms = ParseU64Or(value.c_str(), 0);
    } else if (key == "--slo") {
      config->slo_spec = value;
    } else if (key == "--help" || key == "-h") {
      Usage(argv[0]);
      return false;
    } else {
      std::fprintf(stderr, "unknown flag '%s'\n", key.c_str());
      Usage(argv[0]);
      return false;
    }
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  ServeConfig config;
  if (!ParseArgs(argc, argv, &config)) return 2;

  // The telemetry plane shares this process: the span store's slow
  // threshold and retention, and the fatal-signal flight dump all honor
  // their usual env.
  tempspec::SpanStore::Instance().ConfigureFromEnv();
  tempspec::FlightRecorder::MaybeInstallFromEnv();

  // The health plane: declared objectives plus the sampler thread that
  // feeds /metrics/history and re-evaluates the SLO watchdog every tick.
  if (!config.slo_spec.empty() &&
      !tempspec::SloRegistry::Instance().DeclareFromSpec(config.slo_spec)) {
    std::fprintf(stderr, "tempspec_serve: bad --slo entry in '%s'\n",
                 config.slo_spec.c_str());
    return 2;
  }
  if (config.history_ms > 0) {
    tempspec::MetricsHistory::Instance().Start(
        config.history_ms, [] { tempspec::SloRegistry::Instance().Evaluate(); });
  }

  tempspec::QueryServiceOptions service_options;
  service_options.data_dir = config.data_dir;
  tempspec::QueryService service(service_options);
  tempspec::Status opened = service.Open();
  if (!opened.ok()) {
    std::fprintf(stderr, "tempspec_serve: cannot open data dir '%s': %s\n",
                 config.data_dir.c_str(), opened.ToString().c_str());
    return 1;
  }
  if (!config.data_dir.empty()) {
    std::fprintf(stderr, "tempspec_serve: recovered %zu relation(s) from %s\n",
                 service.RelationNames().size(), config.data_dir.c_str());
  }

  tempspec::ServerOptions server_options;
  server_options.bind_address = config.addr;
  server_options.port = config.port;
  server_options.max_inflight = static_cast<size_t>(config.max_inflight);
  server_options.worker_threads = static_cast<size_t>(config.workers);
  server_options.default_deadline_ms = config.default_deadline_ms;
  server_options.max_deadline_ms = config.max_deadline_ms;
  tempspec::NetServer server(std::move(server_options));
  tempspec::RegisterTelemetryEndpoints(&server);
  server.SetStatementHandler(
      [&service](const std::string& statement, tempspec::TraceContext* trace) {
        return service.Execute(statement, trace);
      });

  tempspec::Status started = server.Start();
  if (!started.ok()) {
    std::fprintf(stderr, "tempspec_serve: %s\n", started.ToString().c_str());
    return 1;
  }
  if (!config.portfile.empty()) {
    std::ofstream out(config.portfile, std::ios::trunc);
    out << server.port() << "\n";
  }
  std::fprintf(stderr, "tempspec_serve: listening on %s:%u%s%s\n",
               config.addr.c_str(), server.port(),
               config.data_dir.empty() ? " (in-memory)" : ", data dir ",
               config.data_dir.c_str());

  std::signal(SIGINT, HandleStopSignal);
  std::signal(SIGTERM, HandleStopSignal);
  std::signal(SIGPIPE, SIG_IGN);  // broken clients surface as write errors
  while (g_stop == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }

  std::fprintf(stderr, "tempspec_serve: shutting down\n");
  tempspec::MetricsHistory::Instance().Stop();
  server.Stop();
  return 0;
}
