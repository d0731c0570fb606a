#include "query/optimizer.h"

#include "obs/flight_recorder.h"
#include "obs/metrics.h"

namespace tempspec {

namespace {

/// \brief Counts the chosen strategy under optimizer.plan.<token>. Cached
/// handles per strategy so the per-plan cost is one relaxed atomic add.
void CountPlan(const PlanChoice& plan) {
  TS_FLIGHT(FlightCategory::kPlan, FlightCode::kPlanChoice, plan.strategy,
            plan.kernel, ExecutionStrategyToToken(plan.strategy));
  static MetricCounter* const counters[] = {
      &MetricsRegistry::Instance().GetCounter(
          std::string("optimizer.plan.") +
          ExecutionStrategyToToken(ExecutionStrategy::kFullScan)),
      &MetricsRegistry::Instance().GetCounter(
          std::string("optimizer.plan.") +
          ExecutionStrategyToToken(ExecutionStrategy::kValidIndex)),
      &MetricsRegistry::Instance().GetCounter(
          std::string("optimizer.plan.") +
          ExecutionStrategyToToken(ExecutionStrategy::kTransactionWindow)),
      &MetricsRegistry::Instance().GetCounter(
          std::string("optimizer.plan.") +
          ExecutionStrategyToToken(ExecutionStrategy::kRollbackEquivalence)),
      &MetricsRegistry::Instance().GetCounter(
          std::string("optimizer.plan.") +
          ExecutionStrategyToToken(ExecutionStrategy::kMonotoneBinarySearch)),
  };
  const size_t i = static_cast<size_t>(plan.strategy);
  if (i < sizeof(counters) / sizeof(counters[0])) counters[i]->Increment();
}

}  // namespace

Optimizer::Optimizer(const SpecializationSet& specs, const Schema& schema,
                     std::function<bool()> drifted)
    : specs_(specs), schema_(schema), drifted_(std::move(drifted)) {}

namespace {

bool IsFixedBand(const Band& b) {
  return (!b.lower() || b.lower()->offset.IsFixed()) &&
         (!b.upper() || b.upper()->offset.IsFixed());
}

}  // namespace

std::optional<Band> Optimizer::CombinedFixedBand() const {
  Band acc = Band::All();
  bool any = false;
  if (schema_.IsEventRelation()) {
    for (const auto& s : specs_.event_specs()) {
      if (s.anchor() != TransactionAnchor::kInsertion) continue;
      const Band& b = s.band();
      if (!IsFixedBand(b)) continue;  // calendric: window is anchor-dependent
      acc = acc.Intersect(b);
      any = any || !b.IsUnrestricted();
    }
  } else {
    // Interval relations: a match covers the queried instant, so
    // vt_b <= q < vt_e. A *lower* bound on vt_b - tt caps tt from above
    // (tt <= vt_b - lo_b <= q - lo_b), and an *upper* bound on vt_e - tt
    // caps it from below (tt >= vt_e - hi_e > q - hi_e). Combine the usable
    // half-bands into one effective band of "q - tt".
    for (const auto& a : specs_.anchored_specs()) {
      if (a.spec().anchor() != TransactionAnchor::kInsertion) continue;
      const Band& b = a.spec().band();
      if (!IsFixedBand(b)) continue;
      if (a.valid_anchor() != ValidAnchor::kEnd && b.lower()) {
        acc = acc.Intersect(Band::AtLeast(b.lower()->offset, b.lower()->open));
        any = true;
      }
      if (a.valid_anchor() != ValidAnchor::kBegin && b.upper()) {
        acc = acc.Intersect(Band::AtMost(b.upper()->offset, b.upper()->open));
        any = true;
      }
    }
  }
  if (!any || acc.IsUnrestricted()) return std::nullopt;
  return acc;
}

bool Optimizer::ValidTimesMonotone() const {
  for (const auto& o : specs_.orderings()) {
    if (o.scope() != SpecScope::kPerRelation) continue;
    if (o.kind() == OrderingKind::kNonDecreasing ||
        o.kind() == OrderingKind::kSequential) {
      return true;
    }
  }
  return false;
}

bool Optimizer::IsDegenerate() const {
  for (const auto& s : specs_.event_specs()) {
    if (s.kind() == EventSpecKind::kDegenerate &&
        s.anchor() == TransactionAnchor::kInsertion) {
      return true;
    }
  }
  return false;
}

namespace {

// The band constrains vt - tt to [lo, hi]; solving for tt over a valid-time
// query range [vlo, vhi] gives tt in [vlo - hi, vhi - lo]. Unbounded sides
// stay unbounded.
TimeInterval WindowFromBand(const Band& band, TimePoint vlo, TimePoint vhi) {
  TimePoint tlo = TimePoint::Min();
  TimePoint thi = TimePoint::Max();
  if (band.upper()) tlo = vlo - band.upper()->offset;
  if (band.lower()) thi = vhi - band.lower()->offset;
  // Window is inclusive of thi; TimeInterval is half-open, so bump by one
  // chronon when finite.
  if (!thi.IsMax()) thi = TimePoint::FromMicros(thi.micros() + 1);
  return TimeInterval(tlo, thi);
}

}  // namespace

PlanChoice Optimizer::PlanTimeslice(TimePoint vt) const {
  return PlanValidRange(vt, TimePoint::FromMicros(vt.micros() + 1));
}

PlanChoice Optimizer::PlanValidRange(TimePoint lo, TimePoint hi) const {
  PlanChoice plan;
  const TimePoint hi_incl = TimePoint::FromMicros(hi.micros() - 1);

  // A DRIFTED relation declared a band its workload has escaped; the
  // declaration is no longer a sound basis for a specialized strategy or
  // kernel, so plan as if nothing were declared. (Enforcement keeps the
  // extension itself clean, so this is conservative, not required for
  // correctness — but a plan justified by a violated declaration is a lie.)
  if (drifted_ && drifted_()) {
    plan.strategy = ExecutionStrategy::kValidIndex;
    plan.kernel = ScanKernel::kRowAtATime;
    plan.rationale =
        "drift monitor reports DRIFTED: declared specialization ignored; "
        "valid-time interval index probe";
    CountPlan(plan);
    return plan;
  }

  if (IsDegenerate()) {
    // vt = tt within the granularity: matches can only have been stored in
    // the granules covering the queried valid range.
    const Granularity g = schema_.valid_granularity();
    plan.strategy = ExecutionStrategy::kRollbackEquivalence;
    plan.kernel = ScanKernel::kDegenerate;
    plan.tt_window = TimeInterval(g.Truncate(lo), g.NextGranule(hi_incl));
    plan.rationale =
        "degenerate relation: valid time equals transaction time within "
        "granularity " + g.ToString() + "; timeslice answered as rollback";
    CountPlan(plan);
    return plan;
  }

  if (auto band = CombinedFixedBand()) {
    plan.strategy = ExecutionStrategy::kTransactionWindow;
    // Event relations derive vt_end, so the banded kernel reads one vt
    // column; interval stamps need both — the generic columnar predicate.
    plan.kernel = schema_.IsEventRelation() ? ScanKernel::kBanded
                                            : ScanKernel::kGeneric;
    plan.tt_window = WindowFromBand(*band, lo, hi_incl);
    plan.rationale = "declared band " + band->ToString() +
                     " bounds the storage delay; scanning tt window " +
                     plan.tt_window.ToString();
    CountPlan(plan);
    return plan;
  }

  if (schema_.IsEventRelation() && ValidTimesMonotone()) {
    plan.strategy = ExecutionStrategy::kMonotoneBinarySearch;
    plan.kernel = ScanKernel::kMonotone;
    plan.rationale =
        "non-decreasing/sequential relation: valid times are sorted in "
        "insertion order; binary search";
    CountPlan(plan);
    return plan;
  }

  plan.strategy = ExecutionStrategy::kValidIndex;
  plan.kernel = ScanKernel::kRowAtATime;  // probe results are non-contiguous
  plan.rationale = "general relation: valid-time interval index probe";
  CountPlan(plan);
  return plan;
}

}  // namespace tempspec
