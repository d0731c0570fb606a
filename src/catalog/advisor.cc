#include "catalog/advisor.h"

#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "query/optimizer.h"
#include "spec/lattice.h"

namespace tempspec {

namespace {

const char* StorageLayoutToString(StorageLayout s) {
  return s == StorageLayout::kAppendOnlyRollback
             ? "append-only rollback layout"
             : "bitemporal backlog layout";
}

const char* StampMaterializationToString(StampMaterialization s) {
  return s == StampMaterialization::kComputeOnRead
             ? "compute valid time on read (determined; stamp not stored)"
             : "store valid time-stamps";
}

const char* IndexAdviceToString(IndexAdvice a) {
  return a == IndexAdvice::kNone ? "transaction-time index only"
                                 : "valid-time interval index";
}

const char* EncodingAdviceToString(EncodingAdvice a) {
  return a == EncodingAdvice::kDeltaUnit
             ? "delta/unit-multiple time-stamp encoding"
             : "raw chronon time-stamps";
}

}  // namespace

AdvisorReport Advise(const Schema& schema, const SpecializationSet& specs) {
  AdvisorReport report;
  Optimizer optimizer(specs, schema);

  const bool degenerate = optimizer.IsDegenerate();
  const bool monotone = optimizer.ValidTimesMonotone();
  bool sequential = false;
  for (const auto& o : specs.orderings()) {
    sequential = sequential || (o.kind() == OrderingKind::kSequential &&
                                o.scope() == SpecScope::kPerRelation);
  }

  // Storage: Section 3.1 — "a degenerate temporal relation can be
  // advantageously treated as a rollback relation"; Section 3.2 — sequential
  // relations are "append-only relation[s] that can support historical (as
  // well as transaction time) queries".
  if (degenerate || sequential) {
    report.storage = StorageLayout::kAppendOnlyRollback;
    report.notes.push_back(
        degenerate
            ? "degenerate: elements arrive in time-stamp order; the backlog "
              "itself is the relation (asynchronous recording)"
            : "sequential: valid time approximable by transaction time; "
              "historical queries served from the append-only store");
  }

  // Stamps: determined relations need no stored valid time.
  bool determined = false;
  for (const auto& s : specs.event_specs()) determined |= s.IsDetermined();
  for (const auto& a : specs.anchored_specs()) determined |= a.spec().IsDetermined();
  if (determined || degenerate) {
    report.stamps = StampMaterialization::kComputeOnRead;
    report.notes.push_back(
        degenerate && !determined
            ? "degenerate: vt equals tt within the granularity; store tt only"
            : "determined: vt = m(e); recompute via the mapping function");
  }

  // Index.
  if (degenerate || monotone || optimizer.CombinedFixedBand().has_value()) {
    report.index = IndexAdvice::kNone;
  }

  // Encoding: any declared regularity admits unit-multiple encoding.
  if (!specs.regularities().empty() || !specs.interval_regularities().empty()) {
    report.encoding = EncodingAdvice::kDeltaUnit;
    report.notes.push_back(
        "regular: store unit multiples k instead of chronon counts");
  }

  report.timeslice_strategy =
      optimizer.PlanTimeslice(TimePoint::FromMicros(0)).strategy;
  TS_COUNTER_INC("advisor.reports");
  // Advise() is not a hot path, so the runtime-composed name goes through
  // the registry directly instead of a cached-handle macro.
  MetricsRegistry::Instance()
      .GetCounter(std::string("advisor.strategy.") +
                  ExecutionStrategyToToken(report.timeslice_strategy))
      .Increment();

  // Lattice closure: everything the declared event types imply (Figure 2).
  const SpecLattice& lattice = SpecLattice::EventTaxonomy();
  for (const auto& s : specs.event_specs()) {
    const std::string name = EventSpecKindToString(s.kind());
    if (!lattice.HasNode(name)) continue;
    for (const auto& ancestor : lattice.AncestorsOf(name)) {
      if (std::find(report.inherited_properties.begin(),
                    report.inherited_properties.end(),
                    ancestor) == report.inherited_properties.end()) {
        report.inherited_properties.push_back(ancestor);
      }
    }
  }

  // Redundancy: a declared event type implied by another declared one.
  const auto& es = specs.event_specs();
  for (size_t i = 0; i < es.size(); ++i) {
    for (size_t j = 0; j < es.size(); ++j) {
      if (i == j) continue;
      auto implies = es[j].Implies(es[i]);
      if (implies.has_value() && *implies &&
          !(es[i].Implies(es[j]).value_or(false) && j > i)) {
        report.redundant_declarations.push_back(
            es[i].ToString() + "  (implied by " + es[j].ToString() + ")");
        break;
      }
    }
  }

  TS_FLIGHT(FlightCategory::kAdvisor, FlightCode::kAdvisorNote,
            report.notes.size(), report.redundant_declarations.size(),
            ExecutionStrategyToToken(report.timeslice_strategy));
  return report;
}

std::string AdvisorReport::ToString() const {
  std::string out;
  out += "Advisor report\n";
  out += "  storage:   " + std::string(StorageLayoutToString(storage)) + "\n";
  out += "  stamps:    " + std::string(StampMaterializationToString(stamps)) + "\n";
  out += "  index:     " + std::string(IndexAdviceToString(index)) + "\n";
  out += "  encoding:  " + std::string(EncodingAdviceToString(encoding)) + "\n";
  out += "  timeslice: " +
         std::string(ExecutionStrategyToString(timeslice_strategy)) + "\n";
  if (!inherited_properties.empty()) {
    out += "  inherited properties:";
    for (const auto& p : inherited_properties) out += " [" + p + "]";
    out += "\n";
  }
  for (const auto& r : redundant_declarations) {
    out += "  redundant: " + r + "\n";
  }
  for (const auto& n : notes) {
    out += "  note: " + n + "\n";
  }
  return out;
}

}  // namespace tempspec
