// P1 — Morsel-driven parallel execution and zero-copy result sets.
//
// The engine's scaling claim: every execution strategy reduces to a morsel
// scan, so every strategy speeds up with cores, and results are zero-copy
// position views unless the caller materializes. Measured here on a
// 1M-element unrestricted relation (full scans are the worst case the
// specializations exist to avoid — and the case parallelism must rescue):
//
//   * full-scan valid-range queries, serial vs parallel at 1/2/4/all threads
//     (the ≥2x-at-4-cores acceptance gate, on byte-identical results);
//   * zero-copy TimesliceSet vs the materializing adapter;
//   * parallel rollback scans;
//   * morsel-size sweep (dispatch overhead vs load balance).
//
// Thread counts beyond the machine's cores only add scheduling noise; the
// sweep still records them so multi-core hosts show the scaling curve.
#include "bench_common.h"
#include "util/thread_pool.h"

using namespace tempspec;
using tempspec::bench::FullScanPlan;
using tempspec::bench::ReportQueryStats;
using tempspec::bench::Require;

namespace {

constexpr int64_t kElements = 1 << 20;  // 1M

struct BigRelation {
  ScenarioRelation scenario;
  TimePoint vt_min = TimePoint::Max();
  TimePoint vt_max = TimePoint::Min();
};

BigRelation& Big() {
  static BigRelation* big = [] {
    auto* b = new BigRelation();
    WorkloadConfig config;
    config.num_objects = 64;
    config.ops_per_object = static_cast<size_t>(kElements) / 64;
    b->scenario = Require(MakeGeneral(config));
    bench::Require(GenerateGeneral(config, Duration::Hours(2), &b->scenario));
    for (const Element& e : b->scenario->elements()) {
      if (e.valid.begin() < b->vt_min) b->vt_min = e.valid.begin();
      if (b->vt_max < e.valid.begin()) b->vt_max = e.valid.begin();
    }
    return b;
  }();
  return *big;
}

/// \brief A ~1/16th slice of the valid domain, varying per call.
TimeInterval QueryWindow(Random& rng) {
  BigRelation& big = Big();
  const int64_t span = big.vt_max.micros() - big.vt_min.micros();
  const int64_t width = span / 16;
  const int64_t lo = big.vt_min.micros() + rng.Uniform(0, span - width);
  return TimeInterval(TimePoint::FromMicros(lo),
                      TimePoint::FromMicros(lo + width));
}

void RunFullScan(benchmark::State& state, ThreadPool* pool) {
  BigRelation& big = Big();
  ExecutorOptions options;
  options.pool = pool;
  QueryExecutor exec(*big.scenario, options);
  Random rng(41);
  QueryStats stats;
  for (auto _ : state) {
    const TimeInterval w = QueryWindow(rng);
    ResultSet set =
        exec.ValidRangeSetWith(FullScanPlan(), w.begin(), w.end(), &stats);
    benchmark::DoNotOptimize(set.positions().data());
  }
  ReportQueryStats(state, stats);
  state.counters["threads"] =
      benchmark::Counter(static_cast<double>(pool ? pool->size() : 1));
  state.SetItemsProcessed(state.iterations() * kElements);
}

void BM_P1_FullScan_Serial(benchmark::State& state) {
  RunFullScan(state, nullptr);
}

void BM_P1_FullScan_Parallel(benchmark::State& state) {
  // range(0) threads; 0 = default (TEMPSPEC_THREADS / hardware concurrency).
  ThreadPool pool(static_cast<size_t>(state.range(0)));
  RunFullScan(state, &pool);
}

void BM_P1_ParallelParity(benchmark::State& state) {
  // Not a timing benchmark: asserts byte-identical serial/parallel results
  // on the 1M relation so the speedup numbers above are comparing equals.
  BigRelation& big = Big();
  ThreadPool pool(4);
  QueryExecutor serial(*big.scenario, ExecutorOptions{.pool = nullptr});
  QueryExecutor parallel(*big.scenario, ExecutorOptions{.pool = &pool});
  Random rng(43);
  for (auto _ : state) {
    const TimeInterval w = QueryWindow(rng);
    const ResultSet a =
        serial.ValidRangeSetWith(FullScanPlan(), w.begin(), w.end());
    const ResultSet b =
        parallel.ValidRangeSetWith(FullScanPlan(), w.begin(), w.end());
    if (a.positions() != b.positions()) {
      state.SkipWithError("parallel full scan diverged from serial");
      return;
    }
    benchmark::DoNotOptimize(b.size());
  }
}

void BM_P1_Timeslice_ZeroCopy(benchmark::State& state) {
  BigRelation& big = Big();
  ThreadPool pool;
  QueryExecutor exec(*big.scenario, ExecutorOptions{.pool = &pool});
  Random rng(47);
  QueryStats stats;
  for (auto _ : state) {
    const TimeInterval w = QueryWindow(rng);
    ResultSet set = exec.ValidRangeSet(w.begin(), w.end(), &stats);
    benchmark::DoNotOptimize(set.positions().data());
  }
  ReportQueryStats(state, stats);
}

void BM_P1_Timeslice_Materialized(benchmark::State& state) {
  BigRelation& big = Big();
  ThreadPool pool;
  QueryExecutor exec(*big.scenario, ExecutorOptions{.pool = &pool});
  Random rng(47);
  QueryStats stats;
  for (auto _ : state) {
    const TimeInterval w = QueryWindow(rng);
    std::vector<Element> out = exec.ValidRange(w.begin(), w.end(), &stats);
    benchmark::DoNotOptimize(out.data());
  }
  ReportQueryStats(state, stats);
}

void BM_P1_Rollback_Scan(benchmark::State& state) {
  // range(0) threads over the 1M element array (no snapshot cache here —
  // this is the raw existence-interval scan).
  BigRelation& big = Big();
  ThreadPool pool(static_cast<size_t>(state.range(0)));
  QueryExecutor exec(*big.scenario,
                     ExecutorOptions{.pool = state.range(0) == 1 ? nullptr
                                                                 : &pool});
  const TimePoint last = big.scenario->LastTransactionTime();
  Random rng(53);
  QueryStats stats;
  for (auto _ : state) {
    const TimePoint tt =
        TimePoint::FromMicros(rng.Uniform(0, last.micros()));
    ResultSet set = exec.RollbackSet(tt, &stats);
    benchmark::DoNotOptimize(set.positions().data());
  }
  ReportQueryStats(state, stats);
  state.counters["threads"] =
      benchmark::Counter(static_cast<double>(state.range(0)));
}

void BM_P1_MorselSweep(benchmark::State& state) {
  BigRelation& big = Big();
  ThreadPool pool;
  ExecutorOptions options;
  options.pool = &pool;
  options.morsel_size = static_cast<size_t>(state.range(0));
  QueryExecutor exec(*big.scenario, options);
  Random rng(59);
  QueryStats stats;
  for (auto _ : state) {
    const TimeInterval w = QueryWindow(rng);
    ResultSet set =
        exec.ValidRangeSetWith(FullScanPlan(), w.begin(), w.end(), &stats);
    benchmark::DoNotOptimize(set.positions().data());
  }
  ReportQueryStats(state, stats);
  state.counters["morsel_size"] =
      benchmark::Counter(static_cast<double>(state.range(0)));
}

}  // namespace

// Registrations whose scans run on pool threads report wall-clock time:
// the timing thread's CPU time would leave the pool's work out.
BENCHMARK(BM_P1_FullScan_Serial);
BENCHMARK(BM_P1_FullScan_Parallel)
    ->Arg(1)->Arg(2)->Arg(4)->Arg(0)->UseRealTime();
BENCHMARK(BM_P1_ParallelParity)->Iterations(3);
BENCHMARK(BM_P1_Timeslice_ZeroCopy)->UseRealTime();
BENCHMARK(BM_P1_Timeslice_Materialized)->UseRealTime();
BENCHMARK(BM_P1_Rollback_Scan)->Arg(1)->Arg(4)->UseRealTime();
BENCHMARK(BM_P1_MorselSweep)
    ->Arg(1024)->Arg(4096)->Arg(16384)->Arg(65536)->UseRealTime();

TEMPSPEC_BENCH_MAIN("p1_parallel");
