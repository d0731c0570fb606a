#include "obs/exporter.h"

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

}  // namespace tempspec
