// Query plans: how a temporal query will be executed, and why.
//
// The paper's central systems claim is that specialization semantics, "when
// captured by an appropriately extended database system, may be used for
// selecting appropriate storage structures, indexing techniques, and query
// processing strategies." The optimizer here turns a declared
// SpecializationSet into an execution strategy for the three query classes
// of Section 1: current, historical (timeslice), and rollback queries.
#ifndef TEMPSPEC_QUERY_PLAN_H_
#define TEMPSPEC_QUERY_PLAN_H_

#include <cstdint>
#include <string>

#include "timex/interval.h"

namespace tempspec {

enum class ExecutionStrategy : uint8_t {
  /// Examine every element.
  kFullScan,
  /// Probe the valid-time interval index.
  kValidIndex,
  /// Derive a transaction-time window from the declared band and scan the
  /// positions it covers: transaction time is always monotone, so the stamp
  /// store's tt_start column is the index, binary-searched for the window.
  kTransactionWindow,
  /// Degenerate relations: valid time equals transaction time (within the
  /// granularity), so a timeslice IS a rollback — answered on the
  /// append-only, time-ordered tt_start column.
  kRollbackEquivalence,
  /// Non-decreasing / sequential relations: valid times are sorted in
  /// insertion order, so binary search directly on the vt_start column.
  kMonotoneBinarySearch,
};

const char* ExecutionStrategyToString(ExecutionStrategy s);

/// \brief Stable snake_case token for metric names and trace attributes
/// (e.g. "valid_index"), as opposed to the prose ToString form.
const char* ExecutionStrategyToToken(ExecutionStrategy s);

/// \brief How the candidate range of a strategy is scanned: row-at-a-time
/// over Element objects, or one of the branch-free columnar kernels over the
/// relation's StampStore (query/kernels.h). Each specialized kernel is the
/// vectorized form of one Figure-1 pane family — it reads only the stamp
/// columns that pane leaves underived.
enum class ScanKernel : uint8_t {
  /// Walk std::vector<Element> with a per-row predicate (the baseline, and
  /// the only option for non-contiguous candidates such as index probes).
  kRowAtATime,
  /// Generic two-half-plane columnar predicate: both vt columns plus the
  /// existence column. Correct for every relation; the fallback under drift.
  kGeneric,
  /// Degenerate pane (vt = tt): inside the granule-aligned tt window a
  /// single vt column decides membership.
  kDegenerate,
  /// Bounded/determined panes (fixed vt - tt band): events only, so vt_end
  /// is derivable (at + 1) and its column is skipped entirely.
  kBanded,
  /// Non-decreasing/sequential panes: the vt_start column is sorted, so the
  /// vt tests collapse into a binary-searched subrange and the scan tests
  /// existence only.
  kMonotone,
  /// Current/rollback queries: existence columns only, no valid-time test.
  kExistence,
};

const char* ScanKernelToToken(ScanKernel k);

/// \brief The optimizer's decision for one query.
struct PlanChoice {
  ExecutionStrategy strategy = ExecutionStrategy::kFullScan;
  /// For kTransactionWindow / kRollbackEquivalence: the transaction-time
  /// window guaranteed (by the declared band) to contain every match.
  TimeInterval tt_window = TimeInterval::All();
  /// Human-readable justification naming the specialization used.
  std::string rationale;
  /// Scan kernel for the strategy's candidate range. Defaults to the
  /// row-at-a-time walk so hand-built plans (tests, naive baselines) keep
  /// the pre-columnar behavior.
  ScanKernel kernel = ScanKernel::kRowAtATime;
};

/// \brief Execution counters for measuring strategy effectiveness.
///
/// Time is reported on two distinct axes that a parallel scan pulls apart:
/// `wall_micros` is elapsed time observed by the caller, while `cpu_micros`
/// sums the time each morsel spent scanning across all workers. Serially
/// cpu <= wall (the scan is one slice of the elapsed time); under
/// parallelism cpu typically exceeds wall — that gap IS the speedup. The
/// former `elapsed_micros` field conflated the two under Merge(), adding
/// per-worker durations into a field documented as wall-clock.
struct QueryStats {
  uint64_t elements_examined = 0;
  uint64_t index_probes = 0;
  uint64_t results = 0;
  /// Wall-clock time spent inside the executor, in microseconds. Merge()
  /// adds wall times, so a merged value only stays wall-clock when the
  /// merged queries ran back-to-back (per-morsel partials merge into
  /// cpu_micros instead, never into this field).
  uint64_t wall_micros = 0;
  /// Summed per-morsel scan time across all workers, in microseconds.
  uint64_t cpu_micros = 0;
  /// Morsels dispatched; 1 per query when the scan ran serially.
  uint64_t morsels_executed = 0;
  /// Selectivity pair for the scan itself: candidate rows run through the
  /// scan predicate, and rows that passed it. Unlike elements_examined
  /// (which counts plan-level candidates), these are incremented by the
  /// collect loop, so rows_matched / rows_scanned is the measured kernel
  /// selectivity EXPLAIN ANALYZE reports.
  uint64_t rows_scanned = 0;
  uint64_t rows_matched = 0;
  /// Morsels abandoned because cancellation (explicit, or via an armed
  /// deadline on the attached TraceContext) was observed at a morsel
  /// boundary. Non-zero iff the scan was cut short; the result set is then a
  /// subset of the candidates, not the full answer.
  uint64_t scan_aborts = 0;

  /// \brief Accumulates another query's counters (per-worker or per-query
  /// aggregation; all counters are additive).
  void Merge(const QueryStats& other) {
    elements_examined += other.elements_examined;
    index_probes += other.index_probes;
    results += other.results;
    wall_micros += other.wall_micros;
    cpu_micros += other.cpu_micros;
    morsels_executed += other.morsels_executed;
    rows_scanned += other.rows_scanned;
    rows_matched += other.rows_matched;
    scan_aborts += other.scan_aborts;
  }
};

}  // namespace tempspec

#endif  // TEMPSPEC_QUERY_PLAN_H_
