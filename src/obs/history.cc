#include "obs/history.h"

#include <algorithm>
#include <chrono>
#include <utility>

namespace tempspec {

namespace {

uint64_t NowUnixMicros() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::system_clock::now().time_since_epoch())
          .count());
}

}  // namespace

std::string HistorySample::ToJson() const {
  std::string json = metrics.ToJson();
  json.insert(1, "\"unix_micros\":" + std::to_string(unix_micros) + ",");
  return json;
}

MetricsHistory& MetricsHistory::Instance() {
  static MetricsHistory* instance = new MetricsHistory();
  return *instance;
}

void MetricsHistory::SetCapacity(size_t capacity) {
  std::lock_guard<std::mutex> lock(mu_);
  capacity_ = capacity;
  if (ring_.size() > capacity_) {
    ring_.erase(ring_.begin(),
                ring_.begin() + static_cast<long>(ring_.size() - capacity_));
  }
}

size_t MetricsHistory::capacity() const {
  std::lock_guard<std::mutex> lock(mu_);
  return capacity_;
}

void MetricsHistory::SampleOnce() {
  HistorySample sample;
  sample.unix_micros = NowUnixMicros();
  sample.metrics = MetricsRegistry::Instance().Scrape();
  std::lock_guard<std::mutex> lock(mu_);
  if (capacity_ == 0) return;
  if (ring_.size() >= capacity_) ring_.erase(ring_.begin());
  ring_.push_back(std::move(sample));
  ++total_samples_;
}

void MetricsHistory::Start(uint64_t interval_ms,
                           std::function<void()> on_sample) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (running_ || interval_ms == 0) return;
    running_ = true;
    stop_requested_ = false;
    interval_ms_ = interval_ms;
    on_sample_ = std::move(on_sample);
  }
  sampler_ = std::thread(&MetricsHistory::Run, this);
}

void MetricsHistory::Stop() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!running_) return;
    stop_requested_ = true;
  }
  cv_.notify_all();
  if (sampler_.joinable()) sampler_.join();
  std::lock_guard<std::mutex> lock(mu_);
  running_ = false;
  on_sample_ = {};
}

bool MetricsHistory::running() const {
  std::lock_guard<std::mutex> lock(mu_);
  return running_;
}

uint64_t MetricsHistory::interval_ms() const {
  std::lock_guard<std::mutex> lock(mu_);
  return interval_ms_;
}

void MetricsHistory::Run() {
  while (true) {
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait_for(lock, std::chrono::milliseconds(interval_ms_),
                   [this] { return stop_requested_; });
      if (stop_requested_) return;
    }
    SampleOnce();
    std::function<void()> hook;
    {
      std::lock_guard<std::mutex> lock(mu_);
      hook = on_sample_;
    }
    if (hook) hook();
  }
}

std::vector<HistorySample> MetricsHistory::Entries() const {
  std::lock_guard<std::mutex> lock(mu_);
  return ring_;
}

uint64_t MetricsHistory::TotalSamples() const {
  std::lock_guard<std::mutex> lock(mu_);
  return total_samples_;
}

std::string MetricsHistory::RenderJsonl(size_t limit) const {
  std::vector<HistorySample> entries;
  {
    std::lock_guard<std::mutex> lock(mu_);
    const size_t n = limit == 0 ? ring_.size() : std::min(limit, ring_.size());
    entries.assign(ring_.end() - static_cast<long>(n), ring_.end());
  }
  std::string out;
  for (const HistorySample& sample : entries) {
    out += sample.ToJson();
    out += '\n';
  }
  return out;
}

void MetricsHistory::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  ring_.clear();
  total_samples_ = 0;
}

}  // namespace tempspec
