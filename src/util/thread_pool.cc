#include "util/thread_pool.h"

#include <algorithm>
#include <chrono>
#include <cstdlib>

#include "obs/metrics.h"

namespace tempspec {

size_t ThreadPool::DefaultThreadCount() {
  if (const char* env = std::getenv("TEMPSPEC_THREADS")) {
    char* end = nullptr;
    const long parsed = std::strtol(env, &end, 10);
    if (end != env && parsed > 0) return static_cast<size_t>(parsed);
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<size_t>(hw);
}

ThreadPool::ThreadPool(size_t threads)
    : size_(threads == 0 ? DefaultThreadCount() : threads) {}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_work_.notify_all();
  for (std::thread& t : workers_) t.join();
}

ThreadPool& ThreadPool::Global() {
  // Leaked so worker threads never race static destruction at exit.
  static ThreadPool* pool = new ThreadPool();
  return *pool;
}

void ThreadPool::EnsureStarted() {
  std::lock_guard<std::mutex> lock(mu_);
  if (started_ || size_ <= 1) return;
  started_ = true;
  workers_.reserve(size_ - 1);  // the caller is worker number `size_`
  for (size_t i = 1; i < size_; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

void ThreadPool::RunMorsels(Job& job) {
  for (;;) {
    const size_t m = job.cursor.fetch_add(1, std::memory_order_relaxed);
    if (m >= job.morsels) return;
    const size_t begin = m * job.grain;
    (*job.fn)(m, begin, std::min(job.n, begin + job.grain));
  }
}

void ThreadPool::WorkerLoop() {
  uint64_t seen = 0;
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    cv_work_.wait(lock,
                  [&] { return stop_ || (job_ != nullptr && epoch_ != seen); });
    if (stop_) return;
    seen = epoch_;
    Job* job = job_;
    ++inflight_;
    lock.unlock();
    RunMorsels(*job);
    lock.lock();
    if (--inflight_ == 0) cv_done_.notify_all();
  }
}

void ThreadPool::ParallelFor(size_t n, size_t grain, const MorselFn& fn) {
  if (n == 0) return;
  if (grain == 0) grain = 1;
  const size_t morsels = (n + grain - 1) / grain;
  if (size_ <= 1 || morsels <= 1) {
    for (size_t m = 0; m < morsels; ++m) {
      const size_t begin = m * grain;
      fn(m, begin, std::min(n, begin + grain));
    }
    return;
  }

  EnsureStarted();
  // queue_depth counts ParallelFor calls queued on or holding run_mu_; the
  // wait histogram is the queueing latency behind other jobs.
  TS_GAUGE_ADD("threadpool.queue_depth", 1);
  const auto queued_at = std::chrono::steady_clock::now();
  std::lock_guard<std::mutex> run_lock(run_mu_);
  const auto started_at = std::chrono::steady_clock::now();
  TS_HISTOGRAM_OBSERVE(
      "threadpool.job_wait_micros",
      static_cast<uint64_t>(std::chrono::duration_cast<std::chrono::microseconds>(
                                started_at - queued_at)
                                .count()));
  TS_COUNTER_INC("threadpool.jobs");
  TS_COUNTER_ADD("threadpool.morsels", morsels);
  Job job;
  job.n = n;
  job.grain = grain;
  job.morsels = morsels;
  job.fn = &fn;
  {
    std::lock_guard<std::mutex> lock(mu_);
    job_ = &job;
    ++epoch_;
  }
  cv_work_.notify_all();
  RunMorsels(job);  // caller participates
  // The cursor is exhausted; retract the job so no worker picks it up late,
  // then wait for workers still draining their last morsel.
  std::unique_lock<std::mutex> lock(mu_);
  job_ = nullptr;
  cv_done_.wait(lock, [&] { return inflight_ == 0; });
  lock.unlock();
  TS_HISTOGRAM_OBSERVE(
      "threadpool.job_run_micros",
      static_cast<uint64_t>(std::chrono::duration_cast<std::chrono::microseconds>(
                                std::chrono::steady_clock::now() - started_at)
                                .count()));
  TS_GAUGE_ADD("threadpool.queue_depth", -1);
}

}  // namespace tempspec
