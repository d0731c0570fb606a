// Trace spans for queries and background work.
//
// A TraceContext is attached to one query execution (via ExecutorOptions) —
// or, since the flight-recorder PR, created locally by background work
// (recovery, checkpoint, compaction, vacuum) — and records what the metrics
// registry can only aggregate: which plan the optimizer chose for *this*
// query, how many elements it examined vs returned, how many buffer-pool
// pages it touched, and how long each stage took. query_lang's EXPLAIN
// ANALYZE surfaces the span as single-line JSON; completed spans are also
// offered to the span store (obs/span_store.h), so recent and slow spans
// survive after the query returns, joinable by trace id.
//
// Tracing is a runtime opt-in: a query with no attached context pays only a
// null-pointer check.
#ifndef TEMPSPEC_OBS_TRACE_H_
#define TEMPSPEC_OBS_TRACE_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace tempspec {

/// \brief One recorded stage of a span: (name, wall micros).
struct TraceStage {
  std::string name;
  uint64_t micros = 0;
};

/// \brief What a span records and ToJson() prints. Plain copyable data, so
/// the span store keeps a finished span as these fields and serializes it
/// only when read.
struct SpanFields {
  std::string name;
  uint64_t trace_id = 0;
  uint64_t wire_trace_hi = 0;
  uint64_t wire_trace_lo = 0;
  uint64_t parent_span_id = 0;
  bool wire_trace_set = false;
  uint64_t wall_micros = 0;
  std::vector<std::pair<std::string, std::string>> attrs;
  std::vector<std::pair<std::string, uint64_t>> counters;
  std::vector<TraceStage> stages;

  /// \brief Attribute value, "" when absent.
  const std::string& attr(const std::string& key) const;
  /// \brief The 128-bit wire trace id as 32 lowercase hex chars ("" when
  /// unset).
  std::string WireTraceId() const;
  /// \brief Single-line JSON:
  /// {"span":"query.timeslice","trace_id":N,"wall_micros":N,
  ///  "attrs":{"strategy":"valid_index",...},
  ///  "counters":{"elements_examined":N,...},
  ///  "stages":[{"name":"plan","micros":N},...]}
  std::string ToJson() const;
};

/// \brief A single query's trace span. Not thread-safe: one context belongs
/// to one query execution, and the executor records into it only from the
/// calling thread (per-morsel work aggregates through QueryStats first).
///
/// Exception: the cancellation plumbing below IS thread-safe. A deadline or
/// cancel request may arrive from another thread (the server's event loop,
/// a disconnecting client) while the query runs; the executor polls
/// CancellationRequested() at morsel boundaries, so an in-flight long scan
/// stops within one morsel of the deadline instead of running to completion.
class TraceContext {
 public:
  TraceContext() = default;

  /// \brief Starts the span clock and names it (e.g. "query.timeslice").
  ///
  /// Nest-aware: a Begin() on a span that is already running (a server-owned
  /// request span reaching the executor, which names its own query span)
  /// keeps the outer clock and trace id, records the inner name as the
  /// "inner_span" attribute, and bumps a nesting depth so the matching
  /// End() does not finalize the outer span early.
  void Begin(std::string name);
  /// \brief Stops the span clock. Idempotent; ToJson() calls it if needed.
  /// Pops one nested Begin() first when the span is nested.
  void End();

  bool started() const { return started_; }
  const std::string& name() const { return fields_.name; }
  uint64_t wall_micros() const { return fields_.wall_micros; }
  /// \brief Process-unique id, assigned by Begin() (0 before). Stamped into
  /// ToJson(), so a slow-query line joins to its span in /debug/traces.
  uint64_t trace_id() const { return fields_.trace_id; }
  /// \brief Everything ToJson() prints, for the span store to keep.
  const SpanFields& fields() const { return fields_; }

  // -- Wire trace identity (distributed tracing) -----------------------------

  /// \brief Adopts a client-generated 128-bit trace id plus the client's
  /// span id as this span's parent. Survives Begin(); stamped into ToJson()
  /// as "wire_trace"/"parent_span" so slowlog entries, retained traces, and
  /// EXPLAIN ANALYZE output all join to the client-observed request.
  void SetWireTrace(uint64_t hi, uint64_t lo, uint64_t parent_span_id);
  /// \brief The 128-bit id as 32 lowercase hex chars ("" when unset).
  std::string WireTraceId() const { return fields_.WireTraceId(); }

  /// \brief Marks the span as owned by the network server, which records it
  /// into the span store at response completion — query_lang must then not
  /// record the same span a second time mid-request.
  void SetServerOwned(bool owned) { server_owned_ = owned; }
  bool server_owned() const { return server_owned_; }

  /// \brief Sets a string attribute (last write wins), e.g. plan strategy.
  void SetAttr(const std::string& key, std::string value);
  /// \brief Adds to a numeric counter, e.g. elements_examined.
  void AddCounter(const std::string& key, uint64_t n);
  /// \brief Counter value, 0 when absent.
  uint64_t counter(const std::string& key) const;
  /// \brief Attribute value, "" when absent.
  const std::string& attr(const std::string& key) const {
    return fields_.attr(key);
  }

  /// \brief Records a completed stage duration.
  void AddStage(std::string name, uint64_t micros);
  const std::vector<TraceStage>& stages() const { return fields_.stages; }

  // -- Deadline & cancellation (thread-safe, unlike the rest of the span) ----

  /// \brief Arms an absolute steady-clock deadline. After it passes,
  /// CancellationRequested() returns true. Zero/default disarms.
  void ArmDeadline(std::chrono::steady_clock::time_point deadline);
  /// \brief Convenience: deadline = now + micros (0 disarms).
  void ArmDeadlineAfterMicros(uint64_t micros);
  /// \brief Requests cooperative cancellation (idempotent; any thread).
  void RequestCancel() { cancel_.store(true, std::memory_order_release); }
  /// \brief True when cancelled explicitly or the armed deadline has passed.
  /// Cheap enough for morsel-boundary polling: one relaxed load, plus a
  /// clock read only while a deadline is armed.
  bool CancellationRequested() const;
  bool has_deadline() const {
    return deadline_nanos_.load(std::memory_order_relaxed) != 0;
  }

  /// \brief RAII stage timer: times from construction to destruction and
  /// appends a TraceStage. Safe with a null context (no-op).
  class StageScope {
   public:
    StageScope(TraceContext* ctx, std::string name);
    ~StageScope();
    StageScope(const StageScope&) = delete;
    StageScope& operator=(const StageScope&) = delete;

   private:
    TraceContext* ctx_;
    std::string name_;
    std::chrono::steady_clock::time_point start_;
  };

  /// \brief SpanFields::ToJson() of the span, ending it first.
  std::string ToJson() const;

 private:
  SpanFields fields_;
  bool server_owned_ = false;
  int nest_depth_ = 0;
  bool started_ = false;
  bool ended_ = false;
  std::chrono::steady_clock::time_point start_;
  /// Cancellation state: a sticky flag plus an armed deadline as
  /// steady-clock nanoseconds since epoch (0 = no deadline). Atomics so the
  /// server's event loop can cancel a query the worker is executing.
  std::atomic<bool> cancel_{false};
  std::atomic<int64_t> deadline_nanos_{0};
};

}  // namespace tempspec

#endif  // TEMPSPEC_OBS_TRACE_H_
