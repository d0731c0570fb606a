// Query statements over catalog relations — the three query classes of
// Section 1, as text:
//
//   CURRENT <relation>
//   TIMESLICE <relation> AT '1992-02-03 10:30:00'
//   RANGE <relation> FROM '1992-02-01' TO '1992-03-01'
//   ROLLBACK <relation> TO '1992-02-03 10:30:00'
//   TIMESLICE <relation> AT '...' AS OF '...'      (bitemporal)
//   EXPLAIN TIMESLICE <relation> AT '...'          (plan only)
//   EXPLAIN ANALYZE <query>                        (execute + trace span)
//
// write statements (single-writer: callers serialize per relation, see
// relation/temporal_relation.h):
//
//   INSERT INTO <relation> OBJECT <n> VALUES (v1, ...) VALID AT '<t>'
//   INSERT INTO <relation> OBJECT <n> VALUES (v1, ...)
//       VALID FROM '<t>' TO '<t>'
//   DELETE FROM <relation> WHERE ID <n>
//
// Values are positional against the schema: quoted strings/times, bare
// numbers, TRUE/FALSE, NULL. The VALID clause kind must match the
// relation's stamp kind (event vs interval). INSERT reports the new
// element surrogate; DELETE closes the element's existence interval.
//
// plus introspection statements over the telemetry plane:
//
//   SHOW SLOW QUERIES [LIMIT n]       (the span store's slow spans, newest
//                                      last, one JSON line per entry)
//   SHOW SPECIALIZATION <relation>    (declared vs observed kind, Figure-1
//                                      pane occupancy, drift state)
//   SHOW FLIGHT RECORDER [LIMIT n]    (the flight-recorder event ring,
//                                      newest last, one JSON line per event)
//   SHOW TRACES [LIMIT n]             (the span store's sampled spans,
//                                      newest last; spans join slowlog
//                                      entries by trace_id)
//   SHOW HEALTH                       (every declared SLO re-evaluated now,
//                                      one JSON verdict per objective)
//   SHOW HISTORY [LIMIT n]            (the metrics time-series ring, newest
//                                      last, one JSON sample per line)
//
// EXPLAIN ANALYZE runs the query with a trace span attached and returns the
// span as single-line JSON in QueryOutput::trace_json (strategy, counters,
// pages touched, per-stage timings) instead of the result rows. In a
// TEMPSPEC_METRICS tree every executed statement additionally carries a
// span that is offered to the process-wide span store (obs/span_store.h),
// which keeps it as slow when its wall time crosses the slowlog threshold.
//
// Time literals are single-quoted "YYYY-MM-DD[ HH:MM[:SS[.ffffff]]]".
#ifndef TEMPSPEC_CATALOG_QUERY_LANG_H_
#define TEMPSPEC_CATALOG_QUERY_LANG_H_

#include <string>
#include <vector>

#include "catalog/catalog.h"
#include "query/plan.h"

namespace tempspec {

/// \brief Result of executing one query statement.
struct QueryOutput {
  std::vector<Element> elements;  // empty for EXPLAIN
  QueryStats stats;
  /// Set for planned (timeslice/range) queries and EXPLAIN.
  std::string plan_description;
  bool explain_only = false;
  /// EXPLAIN ANALYZE: the executed query's trace span as single-line JSON.
  std::string trace_json;
  bool analyze = false;
  /// SHOW statements: the rendered report (ToString() returns it verbatim).
  std::string report;
  /// The relation the statement touched ("" for SHOW): the labeled latency
  /// family (obs/metrics.h) records {relation, kind, protocol} from it.
  std::string relation;

  /// \brief Tabular rendering (element per line).
  std::string ToString() const;
};

class TraceContext;

/// \brief Parses and executes one statement against the catalog.
Result<QueryOutput> ExecuteQuery(const Catalog& catalog,
                                 const std::string& statement);

/// \brief As above, with a caller-owned trace carrying deadline and
/// cancellation state (obs/trace.h). The trace is attached to the executor
/// for every executed statement, the executor polls it at morsel
/// boundaries, and a statement whose scan was cut short by cancellation
/// returns Deadline exceeded instead of a silently truncated result.
Result<QueryOutput> ExecuteQuery(const Catalog& catalog,
                                 const std::string& statement,
                                 TraceContext* trace);

/// \brief True when the statement's leading verb mutates state (INSERT,
/// DELETE, CREATE, DROP) — callers use this to pick shared vs exclusive
/// access to the catalog before execution.
bool IsWriteStatement(const std::string& statement);

}  // namespace tempspec

#endif  // TEMPSPEC_CATALOG_QUERY_LANG_H_
