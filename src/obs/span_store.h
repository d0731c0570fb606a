// One store for finished spans: the slow-query log and the retained traces.
//
// Every finished span (a server request, a local query, background work) is
// offered once through Record(), and the store decides at span end whether
// to keep it and why:
//
//   slow     offered with a statement and a wall time at or above the
//            threshold (TEMPSPEC_SLOWLOG_MICROS, default 10ms)
//   sampled  1 of every n offered spans (TEMPSPEC_TRACE_SAMPLE, default 1)
//
// A kept span is stored once, as its fields rather than its JSON, and each
// reason keeps at most `capacity` spans in a fixed ring of its own
// (TEMPSPEC_TRACE_CAPACITY, default 128), so fast sampled traffic never
// evicts a slow statement. JSON is produced only when a view is read:
// SHOW SLOW QUERIES and the JSONL sink (TEMPSPEC_SLOWLOG_PATH) show the slow
// spans, SHOW TRACES and /debug/traces the sampled ones. tempspec_serve reads
// the TEMPSPEC_* variables named here and calls the setters below.
//
// Concurrency: one mutex guards the settings and both rings. Record() takes
// it to decide admission and again to place the kept span, and copies the
// span in between; readers copy shared pointers out under it and serialize
// after releasing it. Like spans themselves (obs/trace.h) the store is a
// runtime opt-in compiled into every tree: it sees only the spans callers
// attach.
#ifndef TEMPSPEC_OBS_SPAN_STORE_H_
#define TEMPSPEC_OBS_SPAN_STORE_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "obs/trace.h"

namespace tempspec {

/// \brief Why the store keeps a span. One span can be kept for both.
enum class SpanReason { kSlow = 0, kSampled = 1 };

/// \brief One kept span.
struct StoredSpan {
  SpanFields span;
  /// The statement as the user wrote it; "" for programmatic queries and
  /// background work.
  std::string statement;
  /// Capture time, unix epoch microseconds.
  uint64_t unix_micros = 0;
  /// 1-based number among the spans kept as slow; 0 when not slow.
  uint64_t sequence = 0;

  /// \brief The slow-query line, also the JSONL sink format:
  /// {"sequence":..,"trace_id":..,"unix_micros":..,"wall_micros":..,
  ///  "statement":"...","protocol":"...","peer":"...","wire_trace":"...",
  ///  "trace":{...}} (protocol/peer/wire_trace omitted when empty).
  std::string SlowJson() const;
};

/// \brief The span store. Freestanding instances are used by tests.
class SpanStore {
 public:
  /// \brief Process-wide instance: fed by the server, query_lang and
  /// background work; read by SHOW SLOW QUERIES, SHOW TRACES and
  /// /debug/traces.
  static SpanStore& Instance();

  explicit SpanStore(size_t capacity = 128, uint64_t sample_every = 1);

  /// \brief Slow threshold in wall microseconds. 0 keeps every statement
  /// span as slow; UINT64_MAX keeps none. Default: 10ms.
  void SetThresholdMicros(uint64_t threshold);
  uint64_t threshold_micros() const;

  /// \brief Keeps 1 of every n offered spans as sampled (1 = all, 0 =
  /// none).
  void SetSampleEvery(uint64_t n);
  uint64_t sample_every() const;

  /// \brief Spans kept per reason; shrinking drops the oldest.
  void SetCapacity(size_t capacity);
  size_t capacity() const;

  /// \brief Appends each slow span's line to this file ("" = no sink). The
  /// file is opened per write in append mode, so rotation by rename works.
  void SetSinkPath(std::string path);

  /// \brief Offers a finished span of background work: kept if sampled.
  /// Ends the span if the caller has not; ignores one never begun.
  void Record(TraceContext& trace);
  /// \brief Offers a finished statement span: kept if slow or sampled.
  void Record(TraceContext& trace, const std::string& statement);

  /// \brief The spans kept for `reason`, oldest first.
  std::vector<std::shared_ptr<const StoredSpan>> Entries(
      SpanReason reason) const;
  /// \brief Spans ever kept for `reason`, including those since evicted.
  uint64_t TotalKept(SpanReason reason) const;
  /// \brief Spans ever offered.
  uint64_t TotalSeen() const;

  /// \brief Empties both rings and resets the counters and the sampler.
  void Clear();

 private:
  /// A fixed ring: the i-th span kept for a reason sits in slot
  /// i % slots.size(), overwriting the span kept `capacity` spans earlier.
  struct Ring {
    std::vector<std::shared_ptr<const StoredSpan>> slots;
    uint64_t kept = 0;

    void Push(std::shared_ptr<const StoredSpan> span);
    std::vector<std::shared_ptr<const StoredSpan>> Snapshot() const;
    void Resize(size_t capacity);
  };

  void Offer(TraceContext& trace, const std::string* statement);
  Ring& ring(SpanReason reason) { return rings_[static_cast<int>(reason)]; }
  const Ring& ring(SpanReason reason) const {
    return rings_[static_cast<int>(reason)];
  }

  mutable std::mutex mu_;
  size_t capacity_;
  uint64_t sample_every_;
  uint64_t threshold_micros_ = 10000;
  uint64_t seen_ = 0;
  std::string sink_path_;
  Ring rings_[2];
};

/// The names of the two rings the span store replaced, kept because
/// servebench/src/layers.cc constructs both; remove them once the benchmark
/// uses SpanStore.
using SlowQueryLog = SpanStore;
using RetainedTraces = SpanStore;

}  // namespace tempspec

#endif  // TEMPSPEC_OBS_SPAN_STORE_H_
