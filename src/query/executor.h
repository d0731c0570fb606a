// Execution of the three temporal query classes over a TemporalRelation.
//
// Section 1 distinguishes (1) current queries, (2) historical queries (facts
// about the modeled reality — timeslice / valid-time range), and (3)
// rollback queries (the database as stored at a past transaction time). All
// timeslice strategies are interchangeable: they return the same result set;
// only the number of elements examined differs (QueryStats).
//
// Execution engine: every strategy reduces to a scan over a candidate range
// (the whole element array, a transaction-time window, a monotone sub-range,
// or an index probe's position list). Contiguous candidate ranges run a
// branch-free columnar kernel over the relation's StampStore when the plan
// selects one (query/kernels.h); index probes and hand-built baseline plans
// keep the row-at-a-time Element walk. The scan runs morsel-parallel on a
// ThreadPool when the optimizer judges the candidate count worth the
// dispatch cost; matches are collected per-morsel and concatenated in morsel
// order, so parallel and serial execution return byte-identical,
// position-ordered results. Results are zero-copy ResultSets (positions into
// relation.elements()); the std::vector<Element> signatures below are thin
// materializing adapters kept for existing callers.
#ifndef TEMPSPEC_QUERY_EXECUTOR_H_
#define TEMPSPEC_QUERY_EXECUTOR_H_

#include <optional>
#include <vector>

#include "obs/trace.h"
#include "query/optimizer.h"
#include "query/plan.h"
#include "query/result_set.h"
#include "relation/temporal_relation.h"
#include "util/thread_pool.h"

namespace tempspec {

/// \brief Execution knobs for one executor.
struct ExecutorOptions {
  /// Pool for morsel-parallel scans; nullptr forces serial execution.
  /// The default shares the lazily-started process-wide pool.
  ThreadPool* pool = &ThreadPool::Global();
  /// Elements per morsel. Contiguous ranges of this size are the unit of
  /// work distribution; ~64KiB of Elements keeps a morsel cache-resident.
  size_t morsel_size = 4096;
  /// Candidate-count floor for going parallel (the optimizer's cost cutoff;
  /// lowered by tests to force parallel execution at small sizes).
  size_t parallel_cutoff = Optimizer::kParallelCutoff;
  /// Per-query trace span (EXPLAIN ANALYZE). When set, each query records
  /// its plan choice, counters, pages touched, and stage timings into this
  /// context. One context per query: reuse across queries accumulates.
  TraceContext* trace = nullptr;
};

/// \brief Executes temporal queries against one relation.
///
/// Read-only: holds a const reference and only calls const methods of the
/// relation, so any number of executors (and their worker threads) may run
/// concurrently — provided no thread mutates the relation meanwhile (see the
/// concurrent-access contract in relation/temporal_relation.h).
class QueryExecutor {
 public:
  explicit QueryExecutor(const TemporalRelation& relation,
                         ExecutorOptions options = {})
      : relation_(relation),
        optimizer_(relation.specializations(), relation.schema(),
                   [&relation] { return relation.IsDrifted(); }),
        options_(options) {}

  const Optimizer& optimizer() const { return optimizer_; }
  const ExecutorOptions& options() const { return options_; }

  // -- Zero-copy interface ---------------------------------------------------
  // ResultSets view relation.elements(); they are invalidated by any
  // mutation of the relation.

  /// \brief Current query: the present state of the relation.
  ResultSet CurrentSet(QueryStats* stats = nullptr) const;

  /// \brief Rollback query as a position view: elements whose existence
  /// interval contains `tt`, as finally stored (a logically deleted element
  /// appears with its closed tt_end — positions cannot re-open stamps).
  ResultSet RollbackSet(TimePoint tt, QueryStats* stats = nullptr) const;

  /// \brief Historical (timeslice) query: current-belief facts valid at
  /// `vt`. Strategy chosen by the optimizer.
  ResultSet TimesliceSet(TimePoint vt, QueryStats* stats = nullptr) const;

  /// \brief Timeslice with an explicit plan (for baseline measurements).
  ResultSet TimesliceSetWith(const PlanChoice& plan, TimePoint vt,
                             QueryStats* stats = nullptr) const;

  /// \brief Facts whose valid time intersects [lo, hi), current belief.
  ResultSet ValidRangeSet(TimePoint lo, TimePoint hi,
                          QueryStats* stats = nullptr) const;
  ResultSet ValidRangeSetWith(const PlanChoice& plan, TimePoint lo, TimePoint hi,
                              QueryStats* stats = nullptr) const;

  /// \brief Bitemporal query: facts valid at `vt` as believed at transaction
  /// time `tt`. Planned like a timeslice (the optimizer's strategies bound
  /// *insertion* times, which deletion never moves), with the existence
  /// filter ExistsAt(tt) applied on top of the chosen strategy.
  ResultSet TimesliceAsOfSet(TimePoint vt, TimePoint tt,
                             QueryStats* stats = nullptr) const;

  // -- Materializing adapters (pre-ResultSet signatures) ---------------------

  std::vector<Element> Current(QueryStats* stats = nullptr) const;

  /// \brief Rollback query: the state as stored at transaction time `tt`.
  /// Uses the relation's snapshot/differential cache when enabled (replaying
  /// the backlog reproduces open deletion stamps); otherwise materializes
  /// RollbackSet.
  std::vector<Element> Rollback(TimePoint tt, QueryStats* stats = nullptr) const;

  std::vector<Element> Timeslice(TimePoint vt, QueryStats* stats = nullptr) const;
  std::vector<Element> TimesliceWith(const PlanChoice& plan, TimePoint vt,
                                     QueryStats* stats = nullptr) const;
  std::vector<Element> ValidRange(TimePoint lo, TimePoint hi,
                                  QueryStats* stats = nullptr) const;
  std::vector<Element> ValidRangeWith(const PlanChoice& plan, TimePoint lo,
                                      TimePoint hi,
                                      QueryStats* stats = nullptr) const;
  std::vector<Element> TimesliceAsOf(TimePoint vt, TimePoint tt,
                                     QueryStats* stats = nullptr) const;

 private:
  /// \brief Shared core: executes `plan` over the valid range [lo, hi),
  /// filtering by current belief (as_of empty) or by existence at `*as_of`.
  ResultSet ExecutePlan(const PlanChoice& plan, TimePoint lo, TimePoint hi,
                        std::optional<TimePoint> as_of,
                        QueryStats* stats) const;

  /// \brief Shared core of CurrentSet/RollbackSet: full scan with an
  /// existence-only predicate (the existence_columnar kernel;
  /// kCurrentAsOf selects current belief). `stats` is the caller's query
  /// scope's, never null.
  ResultSet ExistenceScan(int64_t as_of_micros, QueryStats* stats) const;

  /// \brief Collects matching positions from `count` candidates, where
  /// candidate `i` is element position `pos_at(i)` and matches when
  /// `pred(element)`. Morsel-parallel above the optimizer's cutoff;
  /// output is candidate-ordered either way.
  template <typename PosAt, typename Pred>
  std::vector<uint64_t> CollectMatches(size_t count, const PosAt& pos_at,
                                       const Pred& pred,
                                       QueryStats* stats) const;

  /// \brief Columnar counterpart of CollectMatches for *contiguous*
  /// candidate ranges: runs `kernel` (query/kernels.h) over positions
  /// [first, last) of the relation's StampStore, serially or per-morsel
  /// under the same parallel policy. Each morsel's selection bitmap drains
  /// into a private buffer concatenated in morsel order, so results are
  /// byte-identical to the serial kernel and to the row-at-a-time walk.
  /// `as_of_micros` is kCurrentAsOf for current belief.
  std::vector<uint64_t> CollectColumnar(ScanKernel kernel, size_t first,
                                        size_t last, int64_t lo_micros,
                                        int64_t hi_micros, int64_t as_of_micros,
                                        QueryStats* stats) const;

  const TemporalRelation& relation_;
  Optimizer optimizer_;
  ExecutorOptions options_;
};

}  // namespace tempspec

#endif  // TEMPSPEC_QUERY_EXECUTOR_H_
