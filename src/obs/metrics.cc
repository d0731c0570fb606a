#include "obs/metrics.h"

#include <algorithm>
#include <bit>
#include <cstdio>

namespace tempspec {

size_t ThisThreadMetricShard() {
  static std::atomic<size_t> next{0};
  thread_local const size_t idx =
      next.fetch_add(1, std::memory_order_relaxed) % kMetricShards;
  return idx;
}

uint64_t MetricCounter::Value() const {
  uint64_t sum = 0;
  for (const Shard& s : shards_) sum += s.v.load(std::memory_order_relaxed);
  return sum;
}

void MetricCounter::Reset() {
  for (Shard& s : shards_) s.v.store(0, std::memory_order_relaxed);
}

void MetricHistogram::Reset() {
  for (Shard& s : shards_) {
    for (size_t b = 0; b < kHistogramBuckets; ++b) {
      s.buckets[b].store(0, std::memory_order_relaxed);
    }
    s.sum.store(0, std::memory_order_relaxed);
  }
}

size_t HistogramBucketFor(uint64_t v) {
  return static_cast<size_t>(std::bit_width(v));  // 0 -> 0, else 1..64
}

uint64_t HistogramBucketUpperBound(size_t bucket) {
  if (bucket == 0) return 0;
  if (bucket >= 64) return UINT64_MAX;
  return (uint64_t{1} << bucket) - 1;
}

uint64_t HistogramSnapshot::Percentile(double p) const {
  if (count == 0) return 0;
  if (p < 0) p = 0;
  if (p > 1) p = 1;
  const double target = p * static_cast<double>(count);
  uint64_t cumulative = 0;
  for (const auto& [bucket, n] : buckets) {
    cumulative += n;
    if (static_cast<double>(cumulative) >= target) {
      return HistogramBucketUpperBound(bucket);
    }
  }
  return HistogramBucketUpperBound(buckets.empty() ? 0 : buckets.back().first);
}

HistogramSnapshot MetricHistogram::Snapshot() const {
  uint64_t totals[kHistogramBuckets] = {};
  HistogramSnapshot out;
  for (const Shard& s : shards_) {
    out.sum += s.sum.load(std::memory_order_relaxed);
    for (size_t b = 0; b < kHistogramBuckets; ++b) {
      totals[b] += s.buckets[b].load(std::memory_order_relaxed);
    }
  }
  for (size_t b = 0; b < kHistogramBuckets; ++b) {
    if (totals[b] == 0) continue;
    out.count += totals[b];
    out.buckets.emplace_back(b, totals[b]);
  }
  return out;
}

MetricsRegistry& MetricsRegistry::Instance() {
  // Leaked so instrumented destructors of other static objects can still
  // record at exit.
  static MetricsRegistry* registry = new MetricsRegistry();
  return *registry;
}

MetricCounter& MetricsRegistry::GetCounter(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = counters_[name];
  if (!slot) slot = std::make_unique<MetricCounter>(name);
  return *slot;
}

MetricGauge& MetricsRegistry::GetGauge(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = gauges_[name];
  if (!slot) slot = std::make_unique<MetricGauge>(name);
  return *slot;
}

MetricHistogram& MetricsRegistry::GetHistogram(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = histograms_[name];
  if (!slot) slot = std::make_unique<MetricHistogram>(name);
  return *slot;
}

MetricsSnapshot MetricsRegistry::Scrape() const {
  std::lock_guard<std::mutex> lock(mu_);
  MetricsSnapshot snap;
  for (const auto& [name, c] : counters_) snap.counters[name] = c->Value();
  for (const auto& [name, g] : gauges_) snap.gauges[name] = g->Value();
  for (const auto& [name, h] : histograms_) snap.histograms[name] = h->Snapshot();
  return snap;
}

size_t MetricsRegistry::MetricCount() const {
  std::lock_guard<std::mutex> lock(mu_);
  return counters_.size() + gauges_.size() + histograms_.size();
}

void MetricsRegistry::ResetValues() {
  // Not atomic with respect to concurrent writers; benches call this in a
  // quiescent moment between runs. Handles must stay valid, so every metric
  // is zeroed in place.
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [name, c] : counters_) c->Reset();
  for (auto& [name, g] : gauges_) g->Set(0);
  for (auto& [name, h] : histograms_) h->Reset();
}

uint32_t LabelDim::Intern(const std::string& value) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = ids_.find(value);
  if (it != ids_.end()) return it->second;
  if (ids_.size() >= capacity_) return kOverflowId;
  uint32_t id;
  if (!free_ids_.empty()) {
    id = free_ids_.back();
    free_ids_.pop_back();
  } else {
    id = next_id_++;
  }
  ids_[value] = id;
  values_[id] = value;
  return id;
}

void LabelDim::Release(const std::string& value) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = ids_.find(value);
  if (it == ids_.end()) return;
  values_.erase(it->second);
  free_ids_.push_back(it->second);
  ids_.erase(it);
}

std::string LabelDim::ValueOf(uint32_t id) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = values_.find(id);
  return it == values_.end() ? std::string("other") : it->second;
}

size_t LabelDim::LiveCount() const {
  std::lock_guard<std::mutex> lock(mu_);
  return ids_.size();
}

void LabelDim::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  ids_.clear();
  values_.clear();
  free_ids_.clear();
  next_id_ = 1;
}

QueryLatencyFamily::QueryLatencyFamily()
    : relations_(kRelationCapacity), kinds_(32), protocols_(8) {}

QueryLatencyFamily& QueryLatencyFamily::Instance() {
  // Leaked for the same reason as MetricsRegistry::Instance().
  static QueryLatencyFamily* family = new QueryLatencyFamily();
  return *family;
}

namespace {

uint64_t PackSeriesKey(uint32_t relation_id, uint32_t kind_id,
                       uint32_t protocol_id) {
  return (static_cast<uint64_t>(relation_id) << 32) |
         (static_cast<uint64_t>(kind_id & 0xffff) << 16) |
         static_cast<uint64_t>(protocol_id & 0xffff);
}

}  // namespace

void QueryLatencyFamily::Observe(const std::string& relation,
                                 const std::string& kind,
                                 const std::string& protocol,
                                 uint64_t wall_micros) {
  const uint32_t relation_id = relations_.Intern(relation);
  const uint32_t kind_id = kinds_.Intern(kind);
  const uint32_t protocol_id = protocols_.Intern(protocol);
  std::lock_guard<std::mutex> lock(mu_);
  Series& s = series_[PackSeriesKey(relation_id, kind_id, protocol_id)];
  s.buckets[HistogramBucketFor(wall_micros)] += 1;
  s.sum += wall_micros;
}

void QueryLatencyFamily::ReleaseRelation(const std::string& relation) {
  // Evict the series before recycling the id, so a later relation reusing
  // the slot starts from empty histograms.
  const uint32_t relation_id = relations_.Intern(relation);
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (auto it = series_.begin(); it != series_.end();) {
      if (static_cast<uint32_t>(it->first >> 32) == relation_id &&
          relation_id != LabelDim::kOverflowId) {
        it = series_.erase(it);
      } else {
        ++it;
      }
    }
  }
  relations_.Release(relation);
}

std::vector<LabeledSeries> QueryLatencyFamily::Scrape() const {
  std::vector<LabeledSeries> out;
  std::lock_guard<std::mutex> lock(mu_);
  out.reserve(series_.size());
  for (const auto& [key, s] : series_) {
    LabeledSeries row;
    row.relation = relations_.ValueOf(static_cast<uint32_t>(key >> 32));
    row.kind = kinds_.ValueOf(static_cast<uint32_t>((key >> 16) & 0xffff));
    row.protocol = protocols_.ValueOf(static_cast<uint32_t>(key & 0xffff));
    for (size_t b = 0; b < kHistogramBuckets; ++b) {
      if (s.buckets[b] == 0) continue;
      row.latency.count += s.buckets[b];
      row.latency.buckets.emplace_back(b, s.buckets[b]);
    }
    row.latency.sum = s.sum;
    out.push_back(std::move(row));
  }
  std::sort(out.begin(), out.end(),
            [](const LabeledSeries& a, const LabeledSeries& b) {
              if (a.relation != b.relation) return a.relation < b.relation;
              if (a.kind != b.kind) return a.kind < b.kind;
              return a.protocol < b.protocol;
            });
  return out;
}

size_t QueryLatencyFamily::SeriesCount() const {
  std::lock_guard<std::mutex> lock(mu_);
  return series_.size();
}

size_t QueryLatencyFamily::LiveRelationLabels() const {
  return relations_.LiveCount();
}

void QueryLatencyFamily::Reset() {
  std::lock_guard<std::mutex> lock(mu_);
  series_.clear();
  relations_.Clear();
  kinds_.Clear();
  protocols_.Clear();
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 8);
  for (const char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string MetricsSnapshot::ToJson() const {
  std::string out = "{\"counters\":{";
  bool first = true;
  for (const auto& [name, v] : counters) {
    if (!first) out += ",";
    first = false;
    out += "\"" + JsonEscape(name) + "\":" + std::to_string(v);
  }
  out += "},\"gauges\":{";
  first = true;
  for (const auto& [name, v] : gauges) {
    if (!first) out += ",";
    first = false;
    out += "\"" + JsonEscape(name) + "\":" + std::to_string(v);
  }
  out += "},\"histograms\":{";
  first = true;
  for (const auto& [name, h] : histograms) {
    if (!first) out += ",";
    first = false;
    out += "\"" + JsonEscape(name) + "\":{\"count\":" + std::to_string(h.count) +
           ",\"sum\":" + std::to_string(h.sum) +
           ",\"p50\":" + std::to_string(h.Percentile(0.5)) +
           ",\"p99\":" + std::to_string(h.Percentile(0.99)) + "}";
  }
  out += "}}";
  return out;
}

}  // namespace tempspec
