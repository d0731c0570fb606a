// Prometheus text exposition of the metrics registry: the renderers behind
// the /metrics page that net/telemetry_endpoints.h registers.
#ifndef TEMPSPEC_OBS_EXPORTER_H_
#define TEMPSPEC_OBS_EXPORTER_H_

#include <string>
#include <vector>

#include "obs/metrics.h"

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

}  // namespace tempspec

#endif  // TEMPSPEC_OBS_EXPORTER_H_
