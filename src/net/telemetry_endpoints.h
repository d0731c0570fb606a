// The telemetry endpoint set, registered onto any NetServer: one network
// stack serves both the query plane and the observability plane.
//
//   /metrics          — Prometheus text exposition of the metrics registry
//                       and the labeled latency family (obs/exporter.h)
//   /metrics/history  — the metrics time-series ring as JSONL
//                       (obs/history.h)
//   /varz             — {"build":..., "metrics":...} JSON snapshot: the
//                       build-config stamp plus the registry
//   /healthz          — "ok" liveness probe
//   /debug/events     — the flight-recorder ring as JSONL
//   /debug/traces     — the span store's sampled spans as JSONL
//   /debug/health     — declared SLOs re-evaluated now, as JSON (obs/slo.h)
//
// Handlers run on the server's current leader and only snapshot in-process
// registries, so they stay responsive even when every statement slot is
// busy — telemetry never passes through admission control.
#ifndef TEMPSPEC_NET_TELEMETRY_ENDPOINTS_H_
#define TEMPSPEC_NET_TELEMETRY_ENDPOINTS_H_

#include "net/server.h"

namespace tempspec {

/// \brief Registers the telemetry endpoints above. Call before Start().
void RegisterTelemetryEndpoints(NetServer* server);

}  // namespace tempspec

#endif  // TEMPSPEC_NET_TELEMETRY_ENDPOINTS_H_
