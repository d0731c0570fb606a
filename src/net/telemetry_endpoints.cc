#include "net/telemetry_endpoints.h"

#include <string>

#include "obs/build_info.h"
#include "obs/exporter.h"
#include "obs/flight_recorder.h"
#include "obs/history.h"
#include "obs/metrics.h"
#include "obs/slo.h"
#include "obs/span_store.h"

namespace tempspec {

void RegisterTelemetryEndpoints(NetServer* server) {
  server->AddHttpHandler(
      "/metrics", [](const HttpRequest&, NetServer::HttpResponse* response) {
        response->content_type = "text/plain; version=0.0.4; charset=utf-8";
        response->body =
            RenderPrometheusText(MetricsRegistry::Instance().Scrape()) +
            RenderLabeledPrometheusText(QueryLatencyFamily::Instance().Scrape());
      });
  server->AddHttpHandler(
      "/metrics/history",
      [](const HttpRequest&, NetServer::HttpResponse* response) {
        // The metrics time-series ring, one JSON sample per line (oldest
        // first). Empty until a sampler runs (tempspec_serve --history-ms).
        response->content_type = "application/json";
        response->body = MetricsHistory::Instance().RenderJsonl(0);
      });
  server->AddHttpHandler(
      "/debug/health",
      [](const HttpRequest&, NetServer::HttpResponse* response) {
        // Every declared SLO re-evaluated now, plus the labeled latency
        // series the verdicts were computed from.
        response->content_type = "application/json";
        response->body = SloRegistry::Instance().RenderHealthJson() + "\n";
      });
  server->AddHttpHandler(
      "/varz", [](const HttpRequest&, NetServer::HttpResponse* response) {
        response->content_type = "application/json";
        response->body = "{\"build\":" + BuildConfigJson() + ",\"metrics\":" +
                         MetricsRegistry::Instance().Scrape().ToJson() + "}\n";
      });
  server->AddHttpHandler(
      "/healthz", [](const HttpRequest&, NetServer::HttpResponse* response) {
        response->body = "ok\n";
      });
  server->AddHttpHandler(
      "/debug/events",
      [](const HttpRequest&, NetServer::HttpResponse* response) {
        // The flight-recorder ring, one JSON event per line (oldest first).
        response->body = FlightRecorder::Instance().ToJsonl();
      });
  server->AddHttpHandler(
      "/debug/traces",
      [](const HttpRequest&, NetServer::HttpResponse* response) {
        // The sampled spans, one JSON object per line (oldest first).
        std::string body;
        for (const auto& t :
             SpanStore::Instance().Entries(SpanReason::kSampled)) {
          body += "{\"trace_id\":" + std::to_string(t->span.trace_id) +
                  ",\"unix_micros\":" + std::to_string(t->unix_micros) +
                  ",\"trace\":" + t->span.ToJson() + "}\n";
        }
        response->body = std::move(body);
      });
  // The 404 body doubles as endpoint discovery.
  server->SetHttpFallback(
      [](const HttpRequest&, NetServer::HttpResponse* response) {
        response->body =
            "not found; try /metrics, /metrics/history, /varz, /healthz, "
            "/debug/events, /debug/traces, /debug/health\n";
      });
}

}  // namespace tempspec
