#include "obs/slo.h"

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <utility>

#include "obs/metrics.h"

namespace tempspec {

namespace {

uint64_t NowUnixMicros() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::system_clock::now().time_since_epoch())
          .count());
}

std::string FormatDouble(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.3f", v);
  return buf;
}

// Per-relation merge of every {kind, protocol} series.
struct MergedHistogram {
  uint64_t buckets[kHistogramBuckets] = {};
  uint64_t count = 0;
  uint64_t sum = 0;

  HistogramSnapshot Snapshot() const {
    HistogramSnapshot snapshot;
    snapshot.count = count;
    snapshot.sum = sum;
    for (size_t b = 0; b < kHistogramBuckets; ++b) {
      if (buckets[b] != 0) snapshot.buckets.emplace_back(b, buckets[b]);
    }
    return snapshot;
  }

  /// Observations in buckets lying *entirely* above `threshold_micros`
  /// (straddling buckets count as conforming — the watchdog is lenient,
  /// see the header comment).
  uint64_t CountAbove(uint64_t threshold_micros) const {
    uint64_t above = 0;
    for (size_t b = 1; b < kHistogramBuckets; ++b) {
      const uint64_t bucket_min = HistogramBucketUpperBound(b - 1) + 1;
      if (bucket_min > threshold_micros) above += buckets[b];
    }
    return above;
  }
};

}  // namespace

std::string SloVerdict::ToJson() const {
  std::string out = "{\"relation\":\"" + JsonEscape(relation) + "\"";
  out += ",\"objective_p99_ms\":" + FormatDouble(objective_p99_ms);
  out += ",\"total\":{\"count\":" + std::to_string(total_count);
  out += ",\"violations\":" + std::to_string(total_violations);
  out += ",\"p99_micros\":" + std::to_string(total_p99_micros);
  out += ",\"verdict\":\"" + std::string(total_ok ? "ok" : "violated") + "\"}";
  out += ",\"window\":{\"count\":" + std::to_string(window_count);
  out += ",\"violations\":" + std::to_string(window_violations);
  out += ",\"p99_micros\":" + std::to_string(window_p99_micros);
  out += ",\"burn_rate\":" + FormatDouble(burn_rate);
  out += ",\"verdict\":\"" + std::string(burning ? "burning" : "ok") + "\"}}";
  return out;
}

SloRegistry& SloRegistry::Instance() {
  static SloRegistry* instance = new SloRegistry();
  return *instance;
}

void SloRegistry::Declare(const std::string& relation, double p99_ms) {
  std::lock_guard<std::mutex> lock(mu_);
  objectives_[relation] = p99_ms;
}

void SloRegistry::Remove(const std::string& relation) {
  std::lock_guard<std::mutex> lock(mu_);
  objectives_.erase(relation);
  baselines_.erase(relation);
}

std::map<std::string, double> SloRegistry::Objectives() const {
  std::lock_guard<std::mutex> lock(mu_);
  return objectives_;
}

bool SloRegistry::DeclareFromSpec(const std::string& spec) {
  bool all_ok = true;
  size_t start = 0;
  while (start <= spec.size()) {
    size_t end = spec.find(',', start);
    if (end == std::string::npos) end = spec.size();
    const std::string entry = spec.substr(start, end - start);
    start = end + 1;
    if (entry.empty()) continue;
    const size_t eq = entry.find('=');
    if (eq == std::string::npos || eq == 0) {
      all_ok = false;
      continue;
    }
    const std::string relation = entry.substr(0, eq);
    char* parse_end = nullptr;
    const double p99_ms = std::strtod(entry.c_str() + eq + 1, &parse_end);
    if (parse_end == entry.c_str() + eq + 1 || *parse_end != '\0' ||
        p99_ms <= 0.0) {
      all_ok = false;
      continue;
    }
    Declare(relation, p99_ms);
  }
  return all_ok;
}

std::vector<SloVerdict> SloRegistry::Evaluate() {
  // Merge the labeled family per relation outside the registry lock.
  std::map<std::string, MergedHistogram> merged;
  for (const LabeledSeries& series : QueryLatencyFamily::Instance().Scrape()) {
    MergedHistogram& m = merged[series.relation];
    m.count += series.latency.count;
    m.sum += series.latency.sum;
    for (const auto& [bucket, n] : series.latency.buckets) {
      m.buckets[bucket] += n;
    }
  }

  std::vector<SloVerdict> verdicts;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& [relation, p99_ms] : objectives_) {
      SloVerdict v;
      v.relation = relation;
      v.objective_p99_ms = p99_ms;
      const uint64_t objective_micros =
          static_cast<uint64_t>(p99_ms * 1000.0);
      const auto it = merged.find(relation);
      if (it != merged.end()) {
        const MergedHistogram& m = it->second;
        v.total_count = m.count;
        v.total_violations = m.CountAbove(objective_micros);
        v.total_p99_micros = m.Snapshot().Percentile(0.99);
      }
      v.total_ok = static_cast<double>(v.total_violations) <=
                   kBudgetFraction * static_cast<double>(v.total_count);

      Baseline& base = baselines_[relation];
      // Counters are monotone, but Reset()/test isolation can rewind them;
      // treat a rewind as a fresh baseline.
      if (v.total_count < base.count || v.total_violations < base.violations) {
        base = Baseline{};
      }
      v.window_count = v.total_count - base.count;
      v.window_violations = v.total_violations - base.violations;
      if (v.window_count > 0) {
        v.burn_rate = (static_cast<double>(v.window_violations) /
                       static_cast<double>(v.window_count)) /
                      kBudgetFraction;
        v.window_p99_micros = v.total_p99_micros;
      }
      v.burning = v.burn_rate > 1.0;
      base.count = v.total_count;
      base.violations = v.total_violations;
      verdicts.push_back(std::move(v));
    }
    current_ = verdicts;
  }

  // The tempspec.slo.* gauge family. Per-relation gauge names are bounded by
  // the declared objectives (operator configuration), not by DDL churn, so
  // the process-lifetime registry handles cannot grow without bound.
  MetricsRegistry& registry = MetricsRegistry::Instance();
  registry.GetGauge("tempspec.slo.relations")
      .Set(static_cast<int64_t>(verdicts.size()));
  int64_t burning = 0;
  for (const SloVerdict& v : verdicts) {
    if (v.burning) ++burning;
    registry.GetGauge("tempspec.slo.ok." + v.relation).Set(v.total_ok ? 1 : 0);
    registry.GetGauge("tempspec.slo.burn_rate_x100." + v.relation)
        .Set(static_cast<int64_t>(v.burn_rate * 100.0));
    registry.GetGauge("tempspec.slo.window_p99_micros." + v.relation)
        .Set(static_cast<int64_t>(v.window_p99_micros));
  }
  registry.GetGauge("tempspec.slo.burning").Set(burning);

  return verdicts;
}

std::vector<SloVerdict> SloRegistry::Current() const {
  std::lock_guard<std::mutex> lock(mu_);
  return current_;
}

std::string SloRegistry::RenderHealthJson() {
  const std::vector<SloVerdict> verdicts = Evaluate();
  std::string out = "{\"unix_micros\":" + std::to_string(NowUnixMicros());
  out += ",\"slos\":[";
  bool first = true;
  for (const SloVerdict& v : verdicts) {
    if (!first) out += ',';
    first = false;
    out += v.ToJson();
  }
  out += "],\"series\":[";
  first = true;
  for (const LabeledSeries& series : QueryLatencyFamily::Instance().Scrape()) {
    if (!first) out += ',';
    first = false;
    out += "{\"relation\":\"" + JsonEscape(series.relation) + "\"";
    out += ",\"kind\":\"" + JsonEscape(series.kind) + "\"";
    out += ",\"protocol\":\"" + JsonEscape(series.protocol) + "\"";
    out += ",\"count\":" + std::to_string(series.latency.count);
    out += ",\"p50_micros\":" + std::to_string(series.latency.Percentile(0.50));
    out += ",\"p99_micros\":" + std::to_string(series.latency.Percentile(0.99));
    out += '}';
  }
  out += "]}";
  return out;
}

void SloRegistry::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  objectives_.clear();
  baselines_.clear();
  current_.clear();
}

}  // namespace tempspec
