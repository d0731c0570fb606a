#include "query/executor.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <iterator>
#include <string>
#include <tuple>

#include "obs/metrics.h"
#include "query/kernels.h"

namespace tempspec {

namespace {

void Count(QueryStats* stats, uint64_t examined, uint64_t probes = 0) {
  stats->elements_examined += examined;
  stats->index_probes += probes;
}

/// \brief Registry counters named `prefix` + a token, one per index, each
/// registered on first use and then cached (obs/metrics.h): a query builds
/// no names and takes no registry lock, while a counter still first appears
/// in /metrics when it first counts.
template <size_t N>
class CounterTable {
 public:
  explicit constexpr CounterTable(const char* prefix) : prefix_(prefix) {}

  MetricCounter& Get(size_t index, const char* token) {
    MetricCounter* counter = slots_[index].load(std::memory_order_acquire);
    if (counter == nullptr) {
      // Racing first uses register the same name and get the same handle.
      counter = &MetricsRegistry::Instance().GetCounter(std::string(prefix_) +
                                                        token);
      slots_[index].store(counter, std::memory_order_release);
    }
    return *counter;
  }

 private:
  const char* prefix_;
  std::array<std::atomic<MetricCounter*>, N> slots_{};
};

constexpr size_t kScanKernelCount =
    static_cast<size_t>(ScanKernel::kExistence) + 1;
constinit CounterTable<kScanKernelCount> kernel_counters("executor.kernel.");

/// \brief Records the scan kernel a query ran (the planned one, except that
/// index probes always walk Elements, a full scan runs kMonotone as
/// kGeneric, and a monotone search runs any columnar kernel as kMonotone):
/// trace attribute for EXPLAIN ANALYZE, per-kernel registry counter for
/// /metrics.
void RecordKernel(TraceContext* trace, ScanKernel kernel) {
  const char* token = ScanKernelToToken(kernel);
  if (trace != nullptr) trace->SetAttr("kernel", token);
  kernel_counters.Get(static_cast<size_t>(kernel), token).Increment();
}

/// \brief The executor's query spans: each names a trace span and counts
/// into `executor.<span>`.
enum class QuerySpan : uint8_t {
  kCurrent,
  kRollback,
  kTimeslice,
  kValidRange,
  kTimesliceAsOf,
};
constexpr const char* kQuerySpanNames[] = {
    "query.current", "query.rollback", "query.timeslice", "query.valid_range",
    "query.timeslice_as_of"};
constexpr size_t kQuerySpanCount = std::size(kQuerySpanNames);
constinit CounterTable<kQuerySpanCount> span_counters("executor.");

/// \brief Strategy slots for the trace attribute and
/// `executor.strategy.<token>`: the optimizer's strategies, then the
/// snapshot replay that answers rollbacks on a relation with a snapshot
/// cache.
constexpr size_t kSnapshotReplay =
    static_cast<size_t>(ExecutionStrategy::kMonotoneBinarySearch) + 1;
constexpr size_t kStrategySlots = kSnapshotReplay + 1;
constinit CounterTable<kStrategySlots> strategy_counters("executor.strategy.");

const char* StrategyToken(size_t slot) {
  return slot == kSnapshotReplay
             ? "snapshot_replay"
             : ExecutionStrategyToToken(static_cast<ExecutionStrategy>(slot));
}

/// \brief Scan body over the contiguous candidates [first + begin,
/// first + end): a columnar kernel (query/kernels.h) on the stamp columns.
auto KernelBody(ScanKernel kernel, const StampColumns& cols, size_t first,
                int64_t lo, int64_t hi, int64_t as_of) {
  return [=](size_t begin, size_t end, std::vector<uint64_t>* out) {
    KernelScan(kernel, cols, first + begin, first + end, lo, hi, as_of, out);
  };
}

/// \brief Scan body over candidates [begin, end), candidate `i` being
/// element position `pos_at(i)`: the row-at-a-time Element walk, for index
/// probes and for hand-built kRowAtATime plans (the naive reference the
/// kernels are tested and benchmarked against). The element span, the
/// bounds and the as-of value are captured by value, so the inner loop
/// keeps them in registers.
template <typename PosAt>
auto ElementWalk(std::span<const Element> elements, PosAt pos_at, TimePoint lo,
                 TimePoint hi, std::optional<TimePoint> as_of) {
  return [=](size_t begin, size_t end, std::vector<uint64_t>* out) {
    for (size_t i = begin; i < end; ++i) {
      const uint64_t pos = pos_at(i);
      const Element& e = elements[pos];
      // Belief filter: current queries require an open existence interval;
      // as-of queries require existence at the given transaction time.
      if (as_of.has_value() ? !e.ExistsAt(*as_of) : !e.IsCurrent()) continue;
      const bool in_range =
          e.valid.is_event()
              ? lo <= e.valid.at() && e.valid.at() < hi
              : e.valid.begin() < hi && lo < e.valid.end();
      if (in_range) out->push_back(pos);
    }
  };
}

uint64_t MicrosBetween(std::chrono::steady_clock::time_point a,
                       std::chrono::steady_clock::time_point b) {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(b - a).count());
}

/// \brief Adds wall-clock time to stats->wall_micros on scope exit.
class StatsTimer {
 public:
  explicit StatsTimer(QueryStats* stats)
      : stats_(stats), start_(std::chrono::steady_clock::now()) {}
  ~StatsTimer() {
    stats_->wall_micros +=
        MicrosBetween(start_, std::chrono::steady_clock::now());
  }

 private:
  QueryStats* stats_;
  std::chrono::steady_clock::time_point start_;
};

/// \brief Per-query observation scope: routes stats, populates the trace
/// span, and publishes registry metrics on exit.
///
/// Declared before the StatsTimer in every entry point, so the timer's
/// destructor finalizes wall_micros before this scope reads the deltas. When
/// the caller passed no QueryStats, a scope-local QueryStats collects the
/// counters instead.
class QueryScope {
 public:
  QueryScope(const TemporalRelation& relation, TraceContext* trace,
             QuerySpan span, QueryStats* caller_stats)
      : trace_(trace),
        span_(span),
        stats_(caller_stats != nullptr ? caller_stats : &local_),
        baseline_(*stats_) {
    if (trace_ != nullptr) {
      trace_->Begin(kQuerySpanNames[static_cast<size_t>(span)]);
    }
    if (const BufferPool* pool = relation.backlog().buffer_pool()) {
      pool_ = pool;
      pages_before_ = pool->hits() + pool->misses();
    }
  }

  QueryScope(const QueryScope&) = delete;
  QueryScope& operator=(const QueryScope&) = delete;

  /// \brief Stats target for this query (never null): the caller's, or the
  /// scope-local one.
  QueryStats* stats() const { return stats_; }

  /// \brief Records the optimizer's choice for the span and the registry.
  void SetPlan(const PlanChoice& plan) {
    SetStrategy(plan.strategy);
    if (trace_ != nullptr) trace_->SetAttr("plan", plan.rationale);
  }
  void SetStrategy(ExecutionStrategy strategy) {
    strategy_slot_ = static_cast<size_t>(strategy);
  }
  void SetSnapshotReplay() { strategy_slot_ = kSnapshotReplay; }

  ~QueryScope() {
    QueryStats d = *stats_;
    d.elements_examined -= baseline_.elements_examined;
    d.index_probes -= baseline_.index_probes;
    d.results -= baseline_.results;
    d.wall_micros -= baseline_.wall_micros;
    d.cpu_micros -= baseline_.cpu_micros;
    d.morsels_executed -= baseline_.morsels_executed;
    d.rows_scanned -= baseline_.rows_scanned;
    d.rows_matched -= baseline_.rows_matched;
    d.scan_aborts -= baseline_.scan_aborts;
    const uint64_t pages_touched =
        pool_ == nullptr ? 0 : pool_->hits() + pool_->misses() - pages_before_;

    if (trace_ != nullptr) {
      if (strategy_slot_ < kStrategySlots) {
        trace_->SetAttr("strategy", StrategyToken(strategy_slot_));
      }
      trace_->AddCounter("elements_examined", d.elements_examined);
      trace_->AddCounter("index_probes", d.index_probes);
      trace_->AddCounter("results", d.results);
      trace_->AddCounter("morsels_executed", d.morsels_executed);
      trace_->AddCounter("cpu_micros", d.cpu_micros);
      trace_->AddCounter("rows_scanned", d.rows_scanned);
      trace_->AddCounter("rows_matched", d.rows_matched);
      trace_->AddCounter("pages_touched", pages_touched);
      if (d.scan_aborts > 0) {
        trace_->AddCounter("scan_aborts", d.scan_aborts);
        trace_->SetAttr("cancelled", "true");
      }
      trace_->End();
    }

    const size_t span = static_cast<size_t>(span_);
    span_counters.Get(span, kQuerySpanNames[span]).Increment();
    if (strategy_slot_ < kStrategySlots) {
      strategy_counters.Get(strategy_slot_, StrategyToken(strategy_slot_))
          .Increment();
    }
    TS_COUNTER_INC("executor.queries");
    TS_COUNTER_ADD("executor.elements_examined", d.elements_examined);
    TS_COUNTER_ADD("executor.elements_returned", d.results);
    TS_COUNTER_ADD("executor.index_probes", d.index_probes);
    TS_COUNTER_ADD("executor.morsels", d.morsels_executed);
    TS_COUNTER_ADD("executor.rows_scanned", d.rows_scanned);
    TS_COUNTER_ADD("executor.rows_matched", d.rows_matched);
    TS_COUNTER_ADD("executor.scan_aborts", d.scan_aborts);
    TS_HISTOGRAM_OBSERVE("executor.query_wall_micros", d.wall_micros);
  }

 private:
  TraceContext* trace_;
  QuerySpan span_;
  size_t strategy_slot_ = kStrategySlots;  // none recorded
  QueryStats local_;
  QueryStats* stats_;
  QueryStats baseline_;
  const BufferPool* pool_ = nullptr;
  uint64_t pages_before_ = 0;
};

}  // namespace

template <typename Scan>
std::vector<uint64_t> QueryExecutor::CollectMorsels(size_t count,
                                                    const Scan& scan,
                                                    QueryStats* stats) const {
  ThreadPool* pool = options_.pool;
  const size_t grain = options_.morsel_size == 0 ? 1 : options_.morsel_size;
  const bool parallel =
      pool != nullptr && pool->size() > 1 && count > grain &&
      optimizer_.ShouldParallelize(count, options_.parallel_cutoff);
  TraceContext* const trace = options_.trace;
  std::vector<uint64_t> out;
  if (!parallel) {
    const auto scan_start = std::chrono::steady_clock::now();
    size_t scanned = count;
    if (trace == nullptr) {
      scan(0, count, &out);
    } else {
      // With a trace attached, cancellation is polled once per grain-sized
      // chunk — the serial mirror of the per-morsel checks below, so a
      // deadline stops a long serial scan within one morsel too. Chunks
      // append in order, so the output equals one whole-range call.
      size_t base = 0;
      for (; base < count; base += grain) {
        if (trace->CancellationRequested()) break;
        scan(base, std::min(count, base + grain), &out);
      }
      scanned = std::min(base, count);
      if (base < count) {
        stats->scan_aborts += (count - base + grain - 1) / grain;
      }
    }
    if (count > 0) {
      stats->morsels_executed += 1;
      stats->cpu_micros +=
          MicrosBetween(scan_start, std::chrono::steady_clock::now());
      stats->rows_scanned += scanned;
      stats->rows_matched += out.size();
    }
    return out;
  }

  // Morsel-parallel: workers claim contiguous candidate chunks and fill
  // per-morsel buffers (for a kernel, the drained selection bitmap);
  // concatenating the buffers in morsel order makes the output identical to
  // the serial scan above. Per-morsel scan durations accumulate into
  // cpu_micros — the summed cross-worker time whose gap to wall_micros is
  // the parallel speedup.
  const size_t morsels = (count + grain - 1) / grain;
  std::vector<std::vector<uint64_t>> parts(morsels);
  std::atomic<uint64_t> cpu_micros{0};
  std::atomic<uint64_t> skipped_rows{0};
  std::atomic<uint64_t> aborts{0};
  pool->ParallelFor(count, grain,
                    [&](size_t morsel, size_t begin, size_t end) {
                      if (trace != nullptr && trace->CancellationRequested()) {
                        aborts.fetch_add(1, std::memory_order_relaxed);
                        skipped_rows.fetch_add(end - begin,
                                               std::memory_order_relaxed);
                        return;
                      }
                      const auto morsel_start =
                          std::chrono::steady_clock::now();
                      scan(begin, end, &parts[morsel]);
                      cpu_micros.fetch_add(
                          MicrosBetween(morsel_start,
                                        std::chrono::steady_clock::now()),
                          std::memory_order_relaxed);
                    });
  size_t total = 0;
  for (const auto& part : parts) total += part.size();
  out.reserve(total);
  for (const auto& part : parts) out.insert(out.end(), part.begin(), part.end());
  stats->morsels_executed += morsels;
  stats->cpu_micros += cpu_micros.load(std::memory_order_relaxed);
  stats->rows_scanned += count - skipped_rows.load(std::memory_order_relaxed);
  stats->rows_matched += total;
  stats->scan_aborts += aborts.load(std::memory_order_relaxed);
  return out;
}

ResultSet QueryExecutor::ExecutePlan(const PlanChoice& plan, TimePoint lo,
                                     TimePoint hi,
                                     std::optional<TimePoint> as_of,
                                     QueryStats* stats) const {
  TraceContext::StageScope scan_stage(options_.trace, "scan");
  const std::span<const Element> elements = relation_.elements();
  const StampColumns cols = relation_.stamps().columns();

  // Each strategy narrows the candidates: the index probe to a position
  // list, every other strategy to a contiguous range [first, last) of the
  // stamp columns.
  std::vector<uint64_t> probed;
  size_t first = 0;
  size_t last = cols.size;
  ScanKernel kernel = plan.kernel;
  switch (plan.strategy) {
    case ExecutionStrategy::kFullScan:
      Count(stats, last);
      // kMonotone assumes its valid-range tests were pre-applied by
      // MonotoneBounds; on an unbounded scan only the generic predicate is
      // complete.
      if (kernel == ScanKernel::kMonotone) kernel = ScanKernel::kGeneric;
      break;

    case ExecutionStrategy::kValidIndex:
      // Overlapping() returns positions already ascending (contract of
      // IntervalIndex), so the probe result needs no per-query sort. Probe
      // results are not contiguous, so this path walks Elements.
      probed = relation_.valid_index().Overlapping(lo, hi);
      Count(stats, probed.size(), 1);
      kernel = ScanKernel::kRowAtATime;
      break;

    case ExecutionStrategy::kRollbackEquivalence:
    case ExecutionStrategy::kTransactionWindow: {
      // The declared specialization guarantees every match was stored inside
      // the transaction-time window. The sorted tt_start column is the
      // transaction-time index: two binary searches give the window's
      // positions.
      const int64_t* const tt = cols.tt_start;
      first = static_cast<size_t>(
          std::lower_bound(tt, tt + cols.size,
                           plan.tt_window.begin().micros()) -
          tt);
      if (!plan.tt_window.end().IsMax()) {
        last = static_cast<size_t>(
            std::lower_bound(tt + first, tt + cols.size,
                             plan.tt_window.end().micros()) -
            tt);
      }
      Count(stats, last - first, 1);
      break;
    }

    case ExecutionStrategy::kMonotoneBinarySearch:
      // Valid times are non-decreasing in insertion order: binary search the
      // vt_start column for the matching sub-range, then scan only
      // existence.
      std::tie(first, last) = MonotoneBounds(cols, lo.micros(), hi.micros());
      Count(stats, last - first, 1);
      if (kernel != ScanKernel::kRowAtATime) kernel = ScanKernel::kMonotone;
      break;
  }

  std::vector<uint64_t> positions;
  if (plan.strategy == ExecutionStrategy::kValidIndex) {
    const auto pos_at = [c = probed.data()](size_t i) { return c[i]; };
    positions = CollectMorsels(
        probed.size(), ElementWalk(elements, pos_at, lo, hi, as_of), stats);
  } else if (kernel == ScanKernel::kRowAtATime) {
    const auto pos_at = [first](size_t i) -> uint64_t { return first + i; };
    positions = CollectMorsels(
        last - first, ElementWalk(elements, pos_at, lo, hi, as_of), stats);
  } else {
    positions = CollectMorsels(
        last - first,
        KernelBody(kernel, cols, first, lo.micros(), hi.micros(),
                   as_of.has_value() ? as_of->micros() : kCurrentAsOf),
        stats);
  }
  RecordKernel(options_.trace, kernel);
  stats->results += positions.size();
  return ResultSet(elements, std::move(positions));
}

// -- Zero-copy interface ------------------------------------------------------

ResultSet QueryExecutor::CurrentSet(QueryStats* stats) const {
  QueryScope scope(relation_, options_.trace, QuerySpan::kCurrent, stats);
  scope.SetStrategy(ExecutionStrategy::kFullScan);
  return ExistenceScan(kCurrentAsOf, scope.stats());
}

ResultSet QueryExecutor::RollbackSet(TimePoint tt, QueryStats* stats) const {
  QueryScope scope(relation_, options_.trace, QuerySpan::kRollback, stats);
  scope.SetStrategy(ExecutionStrategy::kFullScan);
  return ExistenceScan(tt.micros(), scope.stats());
}

ResultSet QueryExecutor::ExistenceScan(int64_t as_of_micros,
                                       QueryStats* stats) const {
  // Current and rollback queries share one shape: a full scan whose
  // predicate reads only the existence columns (no valid-time test at all) —
  // the existence_columnar kernel, with kCurrentAsOf selecting open
  // intervals.
  StatsTimer timer(stats);
  TraceContext::StageScope scan_stage(options_.trace, "scan");
  const StampColumns cols = relation_.stamps().columns();
  Count(stats, cols.size);
  RecordKernel(options_.trace, ScanKernel::kExistence);
  std::vector<uint64_t> positions = CollectMorsels(
      cols.size,
      KernelBody(ScanKernel::kExistence, cols, 0, 0, 0, as_of_micros), stats);
  stats->results += positions.size();
  return ResultSet(relation_.elements(), std::move(positions));
}

ResultSet QueryExecutor::TimesliceSet(TimePoint vt, QueryStats* stats) const {
  PlanChoice plan;
  {
    TraceContext::StageScope plan_stage(options_.trace, "plan");
    plan = optimizer_.PlanTimeslice(vt);
  }
  return TimesliceSetWith(plan, vt, stats);
}

ResultSet QueryExecutor::TimesliceSetWith(const PlanChoice& plan, TimePoint vt,
                                          QueryStats* stats) const {
  QueryScope scope(relation_, options_.trace, QuerySpan::kTimeslice, stats);
  scope.SetPlan(plan);
  stats = scope.stats();
  StatsTimer timer(stats);
  return ExecutePlan(plan, vt, TimePoint::FromMicros(vt.micros() + 1),
                     std::nullopt, stats);
}

ResultSet QueryExecutor::ValidRangeSet(TimePoint lo, TimePoint hi,
                                       QueryStats* stats) const {
  PlanChoice plan;
  {
    TraceContext::StageScope plan_stage(options_.trace, "plan");
    plan = optimizer_.PlanValidRange(lo, hi);
  }
  return ValidRangeSetWith(plan, lo, hi, stats);
}

ResultSet QueryExecutor::ValidRangeSetWith(const PlanChoice& plan, TimePoint lo,
                                           TimePoint hi,
                                           QueryStats* stats) const {
  QueryScope scope(relation_, options_.trace, QuerySpan::kValidRange,
                   stats);
  scope.SetPlan(plan);
  stats = scope.stats();
  StatsTimer timer(stats);
  return ExecutePlan(plan, lo, hi, std::nullopt, stats);
}

ResultSet QueryExecutor::TimesliceAsOfSet(TimePoint vt, TimePoint tt,
                                          QueryStats* stats) const {
  // The optimizer's strategies bound where matches were *inserted*; logical
  // deletion never moves an insertion, so the same plan applies with the
  // existence filter swapped from IsCurrent() to ExistsAt(tt).
  PlanChoice plan;
  {
    TraceContext::StageScope plan_stage(options_.trace, "plan");
    plan = optimizer_.PlanTimeslice(vt);
  }
  QueryScope scope(relation_, options_.trace, QuerySpan::kTimesliceAsOf,
                   stats);
  scope.SetPlan(plan);
  stats = scope.stats();
  StatsTimer timer(stats);
  return ExecutePlan(plan, vt, TimePoint::FromMicros(vt.micros() + 1), tt,
                     stats);
}

// -- Materializing adapters ---------------------------------------------------

std::vector<Element> QueryExecutor::Current(QueryStats* stats) const {
  return CurrentSet(stats).Materialize(options_.pool);
}

std::vector<Element> QueryExecutor::Rollback(TimePoint tt,
                                             QueryStats* stats) const {
  if (relation_.snapshots() != nullptr) {
    // The snapshot/differential cache replays the backlog in O(suffix); it
    // also reproduces the historical representation (deletion stamps still
    // open at tt), which a position view over the final store cannot.
    QueryScope scope(relation_, options_.trace, QuerySpan::kRollback, stats);
    scope.SetSnapshotReplay();
    stats = scope.stats();
    StatsTimer timer(stats);
    TraceContext::StageScope scan_stage(options_.trace, "snapshot_replay");
    std::vector<Element> out = relation_.StateAt(tt, options_.pool);
    Count(stats, out.size());
    stats->results += out.size();
    return out;
  }
  return RollbackSet(tt, stats).Materialize(options_.pool);
}

std::vector<Element> QueryExecutor::Timeslice(TimePoint vt,
                                              QueryStats* stats) const {
  return TimesliceSet(vt, stats).Materialize(options_.pool);
}

std::vector<Element> QueryExecutor::TimesliceWith(const PlanChoice& plan,
                                                  TimePoint vt,
                                                  QueryStats* stats) const {
  return TimesliceSetWith(plan, vt, stats).Materialize(options_.pool);
}

std::vector<Element> QueryExecutor::ValidRange(TimePoint lo, TimePoint hi,
                                               QueryStats* stats) const {
  return ValidRangeSet(lo, hi, stats).Materialize(options_.pool);
}

std::vector<Element> QueryExecutor::ValidRangeWith(const PlanChoice& plan,
                                                   TimePoint lo, TimePoint hi,
                                                   QueryStats* stats) const {
  return ValidRangeSetWith(plan, lo, hi, stats).Materialize(options_.pool);
}

std::vector<Element> QueryExecutor::TimesliceAsOf(TimePoint vt, TimePoint tt,
                                                  QueryStats* stats) const {
  return TimesliceAsOfSet(vt, tt, stats).Materialize(options_.pool);
}

}  // namespace tempspec
