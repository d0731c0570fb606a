#include "obs/span_store.h"

#include <algorithm>
#include <chrono>
#include <fstream>

#include "obs/metrics.h"

namespace tempspec {

std::string StoredSpan::SlowJson() const {
  std::string out = "{\"sequence\":" + std::to_string(sequence) +
                    ",\"trace_id\":" + std::to_string(span.trace_id) +
                    ",\"unix_micros\":" + std::to_string(unix_micros) +
                    ",\"wall_micros\":" + std::to_string(span.wall_micros) +
                    ",\"statement\":\"" + JsonEscape(statement) + "\"";
  for (const std::string key : {"protocol", "peer"}) {
    const std::string& value = span.attr(key);
    if (!value.empty()) out += ",\"" + key + "\":\"" + JsonEscape(value) + "\"";
  }
  if (span.wire_trace_set) {
    out += ",\"wire_trace\":\"" + span.WireTraceId() + "\"";
  }
  out += ",\"trace\":" + span.ToJson() + "}";
  return out;
}

void SpanStore::Ring::Push(std::shared_ptr<const StoredSpan> span) {
  slots[kept++ % slots.size()] = std::move(span);
}

std::vector<std::shared_ptr<const StoredSpan>> SpanStore::Ring::Snapshot()
    const {
  const uint64_t resident = std::min<uint64_t>(kept, slots.size());
  std::vector<std::shared_ptr<const StoredSpan>> out;
  out.reserve(resident);
  for (uint64_t i = kept - resident; i < kept; ++i) {
    // A slot is empty only when the ring grew after it had wrapped.
    if (slots[i % slots.size()]) out.push_back(slots[i % slots.size()]);
  }
  return out;
}

void SpanStore::Ring::Resize(size_t capacity) {
  std::vector<std::shared_ptr<const StoredSpan>> resized(capacity);
  const uint64_t keep = std::min<uint64_t>({kept, slots.size(), capacity});
  for (uint64_t i = kept - keep; i < kept; ++i) {
    resized[i % capacity] = std::move(slots[i % slots.size()]);
  }
  slots = std::move(resized);
}

SpanStore& SpanStore::Instance() {
  static SpanStore* store = new SpanStore();  // leaked: process lifetime
  return *store;
}

SpanStore::SpanStore(size_t capacity, uint64_t sample_every)
    : capacity_(capacity), sample_every_(sample_every) {
  for (Ring& r : rings_) r.slots.resize(capacity);
}

void SpanStore::SetThresholdMicros(uint64_t threshold) {
  std::lock_guard<std::mutex> lock(mu_);
  threshold_micros_ = threshold;
}

uint64_t SpanStore::threshold_micros() const {
  std::lock_guard<std::mutex> lock(mu_);
  return threshold_micros_;
}

void SpanStore::SetSampleEvery(uint64_t n) {
  std::lock_guard<std::mutex> lock(mu_);
  sample_every_ = n;
}

uint64_t SpanStore::sample_every() const {
  std::lock_guard<std::mutex> lock(mu_);
  return sample_every_;
}

void SpanStore::SetCapacity(size_t capacity) {
  std::lock_guard<std::mutex> lock(mu_);
  capacity_ = capacity;
  for (Ring& r : rings_) r.Resize(capacity);
}

size_t SpanStore::capacity() const {
  std::lock_guard<std::mutex> lock(mu_);
  return capacity_;
}

void SpanStore::SetSinkPath(std::string path) {
  std::lock_guard<std::mutex> lock(mu_);
  sink_path_ = std::move(path);
}

void SpanStore::Record(TraceContext& trace) { Offer(trace, nullptr); }

void SpanStore::Record(TraceContext& trace, const std::string& statement) {
  Offer(trace, &statement);
}

void SpanStore::Offer(TraceContext& trace, const std::string* statement) {
  if (!trace.started()) return;
  trace.End();
  bool slow = false;
  bool sampled = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    sampled = sample_every_ != 0 && seen_ % sample_every_ == 0;
    ++seen_;
    slow = statement != nullptr && trace.wall_micros() >= threshold_micros_;
  }
  if (!slow && !sampled) return;

  // Copy the span outside the lock; only placing it needs the lock.
  auto kept = std::make_shared<StoredSpan>();
  kept->span = trace.fields();
  if (statement != nullptr) kept->statement = *statement;
  kept->unix_micros = static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::system_clock::now().time_since_epoch())
          .count());
  std::string sink_path;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (capacity_ == 0) return;
    if (slow) {
      kept->sequence = ring(SpanReason::kSlow).kept + 1;
      ring(SpanReason::kSlow).Push(kept);
      sink_path = sink_path_;
    }
    if (sampled) ring(SpanReason::kSampled).Push(kept);
  }
  if (!slow) return;
  TS_COUNTER_INC("tempspec.obs.slowlog_recorded");
  if (!sink_path.empty()) {
    // Append outside the lock: a slow disk must not stall recorders.
    std::ofstream out(sink_path, std::ios::app);
    if (out) out << kept->SlowJson() << "\n";
  }
}

std::vector<std::shared_ptr<const StoredSpan>> SpanStore::Entries(
    SpanReason reason) const {
  std::lock_guard<std::mutex> lock(mu_);
  return ring(reason).Snapshot();
}

uint64_t SpanStore::TotalKept(SpanReason reason) const {
  std::lock_guard<std::mutex> lock(mu_);
  return ring(reason).kept;
}

uint64_t SpanStore::TotalSeen() const {
  std::lock_guard<std::mutex> lock(mu_);
  return seen_;
}

void SpanStore::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  for (Ring& r : rings_) {
    r.slots.assign(capacity_, nullptr);
    r.kept = 0;
  }
  seen_ = 0;
}

}  // namespace tempspec
