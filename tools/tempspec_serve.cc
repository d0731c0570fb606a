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
//   --workers=N             statements run at once    (TEMPSPEC_SERVE_WORKERS)
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
// per view (at most 1048576; 0 keeps the default).
//
// A numeric value, flag or environment, must be all decimal digits and fit
// its setting (a port at most 65535); anything else prints the usage and
// exits with status 2, as an unknown flag does.
//
// SIGINT/SIGTERM stop the daemon gracefully: in-flight statements are
// cancelled through their deadlines' TraceContexts, completions drain, and
// the storage layer is left consistent. TEMPSPEC_FLIGHT_DUMP=path installs
// the fatal-signal flight-recorder dump (obs/flight_recorder.h), so even a
// crash leaves a black-box trace behind.
#include <algorithm>
#include <charconv>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iterator>
#include <limits>
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

/// \brief Parses `text` as a decimal number no larger than `max`: digits
/// only, so signs, blanks, suffixes and the empty string are rejected.
bool ParseNumber(const std::string& text, uint64_t max, uint64_t* out) {
  uint64_t value = 0;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc() || ptr != end || value > max) return false;
  *out = value;
  return true;
}

struct ServeConfig {
  std::string addr = "127.0.0.1";
  uint64_t port = 7437;
  std::string data_dir;
  std::string portfile;
  uint64_t max_inflight = 8;
  uint64_t workers = 2;
  uint64_t default_deadline_ms = 0;
  uint64_t max_deadline_ms = 60 * 1000;
  uint64_t history_ms = 0;
  std::string slo_spec;
  // The span store's settings; the defaults are the store's own.
  uint64_t slowlog_micros = tempspec::SpanStore::Instance().threshold_micros();
  uint64_t trace_sample = tempspec::SpanStore::Instance().sample_every();
  uint64_t trace_capacity = 0;
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
  constexpr uint64_t kSizeMax = std::numeric_limits<size_t>::max();
  constexpr uint64_t kU64Max = std::numeric_limits<uint64_t>::max();
  // Every numeric setting: its flag (if any), its environment variable (if
  // any), and the largest value it accepts.
  const struct {
    const char* flag;
    const char* env;
    uint64_t max;
    uint64_t* value;
  } numeric[] = {
      {"--port", "TEMPSPEC_SERVE_PORT", 65535, &config->port},
      {"--max-inflight", "TEMPSPEC_SERVE_MAX_INFLIGHT", kSizeMax,
       &config->max_inflight},
      {"--workers", "TEMPSPEC_SERVE_WORKERS", kSizeMax, &config->workers},
      {"--default-deadline-ms", nullptr, kU64Max,
       &config->default_deadline_ms},
      {"--max-deadline-ms", nullptr, kU64Max, &config->max_deadline_ms},
      {"--history-ms", "TEMPSPEC_SERVE_HISTORY_MS", kU64Max,
       &config->history_ms},
      {nullptr, "TEMPSPEC_SLOWLOG_MICROS", kU64Max, &config->slowlog_micros},
      {nullptr, "TEMPSPEC_TRACE_SAMPLE", kU64Max, &config->trace_sample},
      // The flight recorder's cap.
      {nullptr, "TEMPSPEC_TRACE_CAPACITY", 1u << 20, &config->trace_capacity},
  };
  const auto bad_number = [argv](const char* name, const std::string& text) {
    std::fprintf(stderr, "invalid number '%s' for %s\n", text.c_str(), name);
    Usage(argv[0]);
    return false;
  };

  config->addr = EnvOr("TEMPSPEC_SERVE_ADDR", config->addr.c_str());
  config->data_dir = EnvOr("TEMPSPEC_SERVE_DATA_DIR", "");
  config->portfile = EnvOr("TEMPSPEC_SERVE_PORTFILE", "");
  config->slo_spec = EnvOr("TEMPSPEC_SERVE_SLO", "");
  for (const auto& setting : numeric) {
    if (setting.env == nullptr) continue;
    const char* text = EnvOr(setting.env, nullptr);
    if (text != nullptr && !ParseNumber(text, setting.max, setting.value)) {
      return bad_number(setting.env, text);
    }
  }

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const size_t eq = arg.find('=');
    const std::string key = arg.substr(0, eq);
    const std::string value =
        eq == std::string::npos ? "" : arg.substr(eq + 1);
    const auto setting =
        std::find_if(std::begin(numeric), std::end(numeric),
                     [&key](const auto& n) {
                       return n.flag != nullptr && key == n.flag;
                     });
    if (setting != std::end(numeric)) {
      if (!ParseNumber(value, setting->max, setting->value)) {
        return bad_number(setting->flag, value);
      }
    } else if (key == "--addr") {
      config->addr = value;
    } else if (key == "--data-dir") {
      config->data_dir = value;
    } else if (key == "--portfile") {
      config->portfile = value;
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
  tempspec::SpanStore& spans = tempspec::SpanStore::Instance();
  spans.SetThresholdMicros(config.slowlog_micros);
  spans.SetSampleEvery(config.trace_sample);
  if (config.trace_capacity > 0) spans.SetCapacity(config.trace_capacity);
  spans.SetSinkPath(EnvOr("TEMPSPEC_SLOWLOG_PATH", ""));
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
  server_options.port = static_cast<uint16_t>(config.port);
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
