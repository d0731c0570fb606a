// In-process metrics time series: a bounded ring of periodic registry
// snapshots, so "what did this counter look like over the last ten minutes"
// is answerable from the process itself — no external scraper required.
//
// Each sample is one MetricsRegistry scrape stamped with wall-clock time.
// The ring is served as JSONL by /metrics/history and `SHOW HISTORY`, and
// the optional sampler thread doubles as the SLO watchdog's heartbeat
// (tools/tempspec_serve passes the watchdog evaluation as the per-sample
// hook).
//
// Like the span store this is mutex-guarded: sampling happens every few
// seconds, never on a query path.
#ifndef TEMPSPEC_OBS_HISTORY_H_
#define TEMPSPEC_OBS_HISTORY_H_

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.h"

namespace tempspec {

/// \brief One point-in-time scrape of the metrics registry.
struct HistorySample {
  uint64_t unix_micros = 0;
  MetricsSnapshot metrics;

  /// \brief The scrape's single-line JSON with the time as its first key:
  /// {"unix_micros":N,"counters":{...},"gauges":{...},"histograms":{...}}.
  std::string ToJson() const;
};

/// \brief Bounded ring of periodic metrics samples.
class MetricsHistory {
 public:
  /// \brief Process-wide instance (fed by the sampler thread, read by
  /// /metrics/history and SHOW HISTORY). Tests use free instances.
  static MetricsHistory& Instance();

  explicit MetricsHistory(size_t capacity = 120) : capacity_(capacity) {}
  ~MetricsHistory() { Stop(); }

  MetricsHistory(const MetricsHistory&) = delete;
  MetricsHistory& operator=(const MetricsHistory&) = delete;

  /// \brief Ring capacity; shrinking drops the oldest samples.
  void SetCapacity(size_t capacity);
  size_t capacity() const;

  /// \brief Takes one sample of the process-wide MetricsRegistry now.
  /// Callable from any thread (tests drive the ring without the sampler).
  void SampleOnce();

  /// \brief Starts the background sampler: one SampleOnce() every
  /// `interval_ms`, plus `on_sample` (when set — the SLO watchdog hook)
  /// after each. No-op when already running or interval_ms is 0.
  void Start(uint64_t interval_ms, std::function<void()> on_sample = {});
  /// \brief Stops and joins the sampler thread. Idempotent.
  void Stop();
  bool running() const;
  uint64_t interval_ms() const;

  /// \brief The retained samples, oldest first.
  std::vector<HistorySample> Entries() const;
  /// \brief Samples ever taken (ring may have dropped the oldest).
  uint64_t TotalSamples() const;

  /// \brief The newest `limit` samples as JSONL, oldest first.
  std::string RenderJsonl(size_t limit) const;

  /// \brief Empties the ring and resets the counter (tests).
  void Clear();

 private:
  void Run();

  mutable std::mutex mu_;
  std::condition_variable cv_;
  size_t capacity_;
  uint64_t interval_ms_ = 0;
  bool running_ = false;
  bool stop_requested_ = false;
  uint64_t total_samples_ = 0;
  std::function<void()> on_sample_;
  std::vector<HistorySample> ring_;  // oldest first
  std::thread sampler_;
};

}  // namespace tempspec

#endif  // TEMPSPEC_OBS_HISTORY_H_
