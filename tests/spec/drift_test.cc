// Online specialization-drift monitor (spec/drift.h) against the
// brute-force Figure-1 oracle.
//
// The acceptance property: for every declared EventSpecKind, an ingest
// stream that starts inside the declared region and then escapes it must
// flip the violation counter and move the observed-kind gauge exactly at
// the escaping element — and the pane-occupancy counters must agree with
// the same raw-offset oracle the event_region_property_test uses. Each
// relation publishes its drift metrics once it has seen a stamp.
#include "spec/drift.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "query/executor.h"
#include "relation/temporal_relation.h"
#include "spec/enumeration.h"
#include "spec/inference.h"
#include "spec/lattice.h"
#include "testing.h"
#include "testing_spec.h"
#include "util/random.h"

namespace tempspec {
namespace {

using testing::SpecForKind;
using testing::T;

const Duration kDeltaSmall = Duration::Seconds(30);
const Duration kDeltaLarge = Duration::Seconds(90);

/// \brief Brute-force Figure 1 membership on the raw offset — the same
/// first-principles oracle as event_region_property_test, duplicated here
/// so this suite stays independent of Band::Contains.
bool OracleContains(const Band& band, TimePoint tt, TimePoint vt) {
  const int64_t offset = vt.micros() - tt.micros();
  if (band.lower().has_value()) {
    const int64_t lo = band.lower()->offset.micros();
    if (band.lower()->open ? offset <= lo : offset < lo) return false;
  }
  if (band.upper().has_value()) {
    const int64_t hi = band.upper()->offset.micros();
    if (band.upper()->open ? offset >= hi : offset > hi) return false;
  }
  return true;
}

constexpr int64_t S(int64_t seconds) { return seconds * 1'000'000; }

/// One declared kind's scripted stream: offsets (vt - tt, micros) that stay
/// inside the declared band, then one that escapes it. The inside prefix is
/// chosen so the observed kind CHANGES at the escaping element (shape
/// change), making "the gauge moves exactly there" a sharp assertion.
struct KindPlan {
  EventSpecKind declared;
  std::vector<int64_t> inside;
  int64_t escape;
  EventSpecKind observed_before;  // after the inside prefix
  EventSpecKind observed_after;   // after the escaping element
};

std::vector<KindPlan> Plans() {
  using K = EventSpecKind;
  return {
      {K::kRetroactive, {-S(60), -S(5), 0}, S(10),
       K::kStronglyRetroactivelyBounded, K::kStronglyBounded},
      {K::kDelayedRetroactive, {-S(90), -S(45), -S(30)}, 0,
       K::kDelayedStronglyRetroactivelyBounded,
       K::kStronglyRetroactivelyBounded},
      {K::kPredictive, {0, S(20), S(80)}, -S(10),
       K::kStronglyPredictivelyBounded, K::kStronglyBounded},
      {K::kEarlyPredictive, {S(30), S(60), S(90)}, 0,
       K::kEarlyStronglyPredictivelyBounded, K::kStronglyPredictivelyBounded},
      {K::kRetroactivelyBounded, {0, S(20), S(50)}, -S(60),
       K::kStronglyPredictivelyBounded, K::kStronglyBounded},
      {K::kPredictivelyBounded, {-S(50), -S(10), 0}, S(60),
       K::kStronglyRetroactivelyBounded, K::kStronglyBounded},
      {K::kStronglyRetroactivelyBounded, {-S(30), -S(10), 0}, S(20),
       K::kStronglyRetroactivelyBounded, K::kStronglyBounded},
      {K::kDelayedStronglyRetroactivelyBounded, {-S(90), -S(60), -S(30)}, 0,
       K::kDelayedStronglyRetroactivelyBounded,
       K::kStronglyRetroactivelyBounded},
      {K::kStronglyPredictivelyBounded, {0, S(10), S(30)}, -S(20),
       K::kStronglyPredictivelyBounded, K::kStronglyBounded},
      {K::kEarlyStronglyPredictivelyBounded, {S(30), S(60), S(90)}, 0,
       K::kEarlyStronglyPredictivelyBounded, K::kStronglyPredictivelyBounded},
      {K::kStronglyBounded, {0, S(45), S(90)}, -S(60),
       K::kStronglyPredictivelyBounded, K::kStronglyBounded},
      {K::kDegenerate, {0, 0, 0}, S(5), K::kDegenerate,
       K::kStronglyPredictivelyBounded},
  };
}

SchemaPtr DriftSchema(const std::string& name) {
  return Schema::Make(name,
                      {AttributeDef{"sensor", ValueType::kInt64,
                                    AttributeRole::kTimeInvariantKey},
                       AttributeDef{"value", ValueType::kDouble,
                                    AttributeRole::kTimeVarying}},
                      ValidTimeKind::kEvent, Granularity::Second())
      .ValueOrDie();
}

/// Opens an in-memory event relation declared with `kind`'s representative
/// specialization, on a controllable clock.
Result<std::unique_ptr<TemporalRelation>> OpenDeclared(
    const std::string& name, EventSpecKind kind,
    std::shared_ptr<LogicalClock>* clock_out) {
  RelationOptions options;
  options.schema = DriftSchema(name);
  TS_ASSIGN_OR_RETURN(EventSpecialization spec,
                      SpecForKind(kind, kDeltaSmall, kDeltaLarge));
  options.specializations.AddEvent(spec);
  auto clock = std::make_shared<LogicalClock>(T(100000), Duration::Seconds(10));
  *clock_out = clock;
  options.clock = clock;
  return TemporalRelation::Open(std::move(options));
}

/// Attempts one insert with the given (vt - tt) offset; returns its status.
Status InsertWithOffset(TemporalRelation& rel, LogicalClock& clock,
                        int64_t offset_us) {
  const TimePoint tt = clock.Peek();
  const TimePoint vt = TimePoint::FromMicros(tt.micros() + offset_us);
  return rel.InsertEvent(1, vt, Tuple{int64_t{1}, 1.0}).status();
}

int64_t DriftGauge(const char* what, const std::string& relation) {
  const auto snap = MetricsRegistry::Instance().Scrape();
  const std::string name = std::string("tempspec.drift.") + what + "." + relation;
  auto it = snap.gauges.find(name);
  return it == snap.gauges.end() ? -1 : it->second;
}

uint64_t DriftCounter(const char* what, const std::string& relation) {
  return MetricsRegistry::Instance().Scrape().counter(
      std::string("tempspec.drift.") + what + "." + relation);
}

TEST(DriftMonitorTest, EscapeFlipsViolationAndMovesObservedKindExactly) {
  for (const KindPlan& plan : Plans()) {
    const std::string name =
        "drift_k" + std::to_string(static_cast<int>(plan.declared));
    SCOPED_TRACE(EventSpecKindToString(plan.declared));
    std::shared_ptr<LogicalClock> clock;
    ASSERT_OK_AND_ASSIGN(auto rel, OpenDeclared(name, plan.declared, &clock));

    // Sanity: the scripted stream really does stay inside then escape,
    // per the declared band and the raw-offset oracle.
    ASSERT_OK_AND_ASSIGN(EventSpecialization declared_spec,
                         SpecForKind(plan.declared, kDeltaSmall, kDeltaLarge));
    for (int64_t off : plan.inside) {
      ASSERT_TRUE(OracleContains(declared_spec.band(), T(0),
                                 TimePoint::FromMicros(off)));
    }
    ASSERT_FALSE(OracleContains(declared_spec.band(), T(0),
                                TimePoint::FromMicros(plan.escape)));

    // Phase 1: the inside prefix. All accepted; zero violations; the
    // observed kind settles on the plan's pre-escape kind.
    for (int64_t off : plan.inside) {
      ASSERT_OK(InsertWithOffset(*rel, *clock, off));
    }
    DriftReport before = rel->DriftState();
    EXPECT_EQ(before.observed_count, plan.inside.size());
    EXPECT_EQ(before.violations, 0u);
    EXPECT_TRUE(before.conforming);
    EXPECT_EQ(before.observed, plan.observed_before);
    EXPECT_EQ(DriftGauge("observed_kind", name),
              static_cast<int64_t>(plan.observed_before));
    EXPECT_EQ(DriftCounter("violations", name), 0u);

    // Phase 2: the escaping element. Enforcement rejects it, yet the
    // monitor (which runs before the checker) flips the violation counter
    // and moves the observed-kind gauge — at exactly this element.
    ASSERT_NOT_OK(InsertWithOffset(*rel, *clock, plan.escape));
    DriftReport after = rel->DriftState();
    EXPECT_EQ(after.observed_count, plan.inside.size() + 1);
    EXPECT_EQ(after.violations, 1u);
    EXPECT_FALSE(after.conforming);
    EXPECT_EQ(after.observed, plan.observed_after);
    EXPECT_NE(plan.observed_before, plan.observed_after);  // the gauge MOVED
    EXPECT_EQ(DriftGauge("observed_kind", name),
              static_cast<int64_t>(plan.observed_after));
    EXPECT_EQ(DriftCounter("violations", name), 1u);
    EXPECT_EQ(DriftCounter("observed_stamps", name), plan.inside.size() + 1);
    EXPECT_EQ(static_cast<size_t>(DriftGauge("lattice_distance", name)),
              after.lattice_distance);

    // The element is NOT in the extension (enforcement won) — drift shows
    // what enforcement masks.
    EXPECT_EQ(rel->size(), plan.inside.size());
  }
}

// The drift gate, differentially: once a declared relation drifts, the
// optimizer stops trusting its declaration and falls back to the index probe
// (spec/drift.h), and that fallback must answer exactly what the specialized
// plan answered before the escape. The escaping insert is rejected, so the
// extension, and hence every timeslice, is unchanged.
TEST(DriftMonitorTest, DriftedPlanReturnsTheSpecializedPlansPositions) {
  std::shared_ptr<LogicalClock> clock;
  ASSERT_OK_AND_ASSIGN(
      auto rel, OpenDeclared("drift_gate", EventSpecKind::kStronglyBounded,
                             &clock));
  // The clock steps 10 s per insert and offsets are 10 s multiples inside
  // the declared band, so several elements share each valid time.
  const TimePoint first_tt = clock->Peek();
  Random rng(20261017);
  const int kInserts = 300;
  for (int i = 0; i < kInserts; ++i) {
    ASSERT_OK(InsertWithOffset(*rel, *clock, S(10 * rng.Uniform(0, 9))));
  }
  std::vector<TimePoint> probes;
  for (int j = -3; j < kInserts + 12; ++j) {
    probes.push_back(TimePoint::FromMicros(first_tt.micros() + S(10 * j)));
  }
  probes.push_back(TimePoint::FromMicros(first_tt.micros() + S(1234)));

  // Runs one timeslice through the optimizer; returns its positions and
  // reports the kernel that actually ran.
  const auto timeslice = [&](TimePoint vt, std::string* kernel) {
    TraceContext trace;
    ExecutorOptions options;
    options.trace = &trace;
    QueryExecutor exec(*rel, options);
    std::vector<uint64_t> positions = exec.TimesliceSet(vt).positions();
    *kernel = trace.attr("kernel");
    return positions;
  };

  const QueryExecutor planner(*rel);
  std::vector<std::vector<uint64_t>> before;
  size_t matches = 0;
  for (TimePoint vt : probes) {
    const PlanChoice plan = planner.optimizer().PlanTimeslice(vt);
    ASSERT_EQ(plan.strategy, ExecutionStrategy::kTransactionWindow);
    ASSERT_EQ(plan.kernel, ScanKernel::kBanded);
    std::string kernel;
    before.push_back(timeslice(vt, &kernel));
    // A probe whose tt window is empty has nothing for the kernel to scan.
    if (!before.back().empty()) {
      EXPECT_EQ(kernel, ScanKernelToToken(ScanKernel::kBanded));
    }
    matches += before.back().size();
  }
  ASSERT_EQ(matches, static_cast<size_t>(kInserts));  // every vt is probed

  ASSERT_NOT_OK(InsertWithOffset(*rel, *clock, -S(60)));
  ASSERT_TRUE(rel->IsDrifted());
  ASSERT_EQ(rel->size(), static_cast<size_t>(kInserts));

  for (size_t i = 0; i < probes.size(); ++i) {
    SCOPED_TRACE(probes[i].ToString());
    const PlanChoice plan = planner.optimizer().PlanTimeslice(probes[i]);
    EXPECT_EQ(plan.strategy, ExecutionStrategy::kValidIndex);
    EXPECT_EQ(plan.kernel, ScanKernel::kRowAtATime);
    EXPECT_NE(plan.rationale.find("drift monitor reports DRIFTED"),
              std::string::npos)
        << plan.rationale;
    std::string kernel;
    EXPECT_EQ(timeslice(probes[i], &kernel), before[i]);
    EXPECT_EQ(kernel, ScanKernelToToken(ScanKernel::kRowAtATime));
  }
}

TEST(DriftMonitorTest, PaneOccupancyMatchesBruteForceOracle) {
  Random rng(20260805);
  const auto panes = EnumerateEventRegions(kDeltaSmall, kDeltaLarge);
  for (int round = 0; round < 20; ++round) {
    const std::string name = "drift_pane_r" + std::to_string(round);
    std::shared_ptr<LogicalClock> clock;
    // Declared general: every stamp is accepted, so the occupancy test
    // sweeps the full plane without enforcement interference.
    ASSERT_OK_AND_ASSIGN(auto rel,
                         OpenDeclared(name, EventSpecKind::kGeneral, &clock));
    std::vector<uint64_t> expected(panes.size(), 0);
    for (int i = 0; i < 40; ++i) {
      // Whole-second offsets spanning and exceeding the banded range, with
      // boundary hits (the Second granularity keeps the degenerate pane's
      // chronon-equality test aligned with offset == 0).
      static const int64_t kEdges[] = {0, S(30), -S(30), S(90), -S(90)};
      int64_t off;
      switch (rng.Uniform(0, 2)) {
        case 0: off = kEdges[rng.Uniform(0, 4)]; break;
        case 1: off = kEdges[rng.Uniform(0, 4)] + S(rng.OneIn(0.5) ? 1 : -1); break;
        default: off = S(rng.Uniform(-270, 270)); break;
      }
      const TimePoint tt = clock->Peek();
      const TimePoint vt = TimePoint::FromMicros(tt.micros() + off);
      for (size_t p = 0; p < panes.size(); ++p) {
        if (OracleContains(panes[p].band, tt, vt)) ++expected[p];
      }
      ASSERT_OK(rel->InsertEvent(1, vt, Tuple{int64_t{1}, 1.0}).status());
    }
    const DriftReport report = rel->DriftState();
    ASSERT_EQ(report.regions.size(), panes.size());
    for (size_t p = 0; p < panes.size(); ++p) {
      EXPECT_EQ(report.regions[p].count, expected[p])
          << "pane " << panes[p].construction << " ("
          << EventSpecKindToString(panes[p].kind) << ")";
      EXPECT_EQ(report.regions[p].kind, panes[p].kind);
    }
  }
}

TEST(IncrementalEventProfileTest, MatchesBatchInferenceOnRandomStreams) {
  Random rng(4242);
  for (int round = 0; round < 200; ++round) {
    const Granularity g =
        rng.OneIn(0.5) ? Granularity() : Granularity::Second();
    IncrementalEventProfile inc(g);
    std::vector<EventStamp> stamps;
    const int n = static_cast<int>(rng.Uniform(1, 12));
    for (int i = 0; i < n; ++i) {
      const TimePoint tt = T(rng.Uniform(1000, 2000));
      const TimePoint vt =
          TimePoint::FromMicros(tt.micros() + rng.Uniform(-S(120), S(120)));
      stamps.push_back(EventStamp{tt, vt, 1});
      inc.Observe(tt, vt);
    }
    const EventProfile p = inc.Profile();
    // Recompute the batch answer directly from the definitions.
    int64_t lo = stamps[0].vt.MicrosSince(stamps[0].tt), hi = lo;
    bool degenerate = true;
    for (const auto& s : stamps) {
      const int64_t off = s.vt.MicrosSince(s.tt);
      lo = std::min(lo, off);
      hi = std::max(hi, off);
      if (!g.Same(s.tt, s.vt)) degenerate = false;
    }
    EXPECT_TRUE(p.applicable);
    EXPECT_EQ(p.min_offset_us, lo);
    EXPECT_EQ(p.max_offset_us, hi);
    EXPECT_EQ(p.degenerate, degenerate);
    const EventSpecKind want =
        degenerate ? EventSpecKind::kDegenerate
                   : EventSpecialization::ClassifyBand(Band::Between(
                         Duration::Micros(lo), Duration::Micros(hi)));
    EXPECT_EQ(p.classified, want);
    EXPECT_EQ(inc.ObservedKind(), want);
    EXPECT_EQ(inc.count(), static_cast<uint64_t>(n));
  }
}

TEST(IncrementalEventProfileTest, EmptyProfileIsInapplicable) {
  IncrementalEventProfile inc;
  EXPECT_FALSE(inc.Profile().applicable);
  EXPECT_EQ(inc.ObservedKind(), EventSpecKind::kGeneral);
  EXPECT_EQ(inc.count(), 0u);
}

TEST(LatticeDistanceTest, Figure2Distances) {
  const SpecLattice& lattice = SpecLattice::EventTaxonomy();
  ASSERT_OK_AND_ASSIGN(size_t zero, lattice.Distance("general", "general"));
  EXPECT_EQ(zero, 0u);
  ASSERT_OK_AND_ASSIGN(size_t one, lattice.Distance("general", "undetermined"));
  EXPECT_EQ(one, 1u);
  // retroactive -> predictively bounded -> undetermined -> retroactively
  // bounded -> predictive: shortest undirected path has length 4... unless a
  // shorter one exists through strongly bounded: retroactive <- predictively
  // bounded -> strongly bounded <- retroactively bounded -> predictive is
  // also 4; the true shortest is 4.
  ASSERT_OK_AND_ASSIGN(size_t four, lattice.Distance("retroactive", "predictive"));
  EXPECT_EQ(four, 4u);
  // Distance is symmetric.
  ASSERT_OK_AND_ASSIGN(size_t there, lattice.Distance("degenerate", "general"));
  ASSERT_OK_AND_ASSIGN(size_t back, lattice.Distance("general", "degenerate"));
  EXPECT_EQ(there, back);
  EXPECT_NOT_OK(lattice.Distance("general", "no-such-node").status());
  // Every EventSpecKind maps to a node, so the drift helper can never miss.
  for (size_t k = 0; k < kNumEventSpecKinds; ++k) {
    const auto kind = static_cast<EventSpecKind>(k);
    EXPECT_TRUE(lattice.HasNode(EventSpecKindToString(kind)))
        << EventSpecKindToString(kind);
    EXPECT_EQ(EventKindLatticeDistance(kind, kind), 0u);
  }
}

TEST(DriftMetricsComplianceTest, FirstStampRegistersTheRelationsGauges) {
  const std::string name = "drift_compliance";
  std::shared_ptr<LogicalClock> clock;
  ASSERT_OK_AND_ASSIGN(
      auto rel, OpenDeclared(name, EventSpecKind::kRetroactive, &clock));
  ASSERT_OK(InsertWithOffset(*rel, *clock, -S(5)));
  const auto snap = MetricsRegistry::Instance().Scrape();
  const bool registered =
      snap.gauges.count("tempspec.drift.observed_kind." + name) > 0;
  EXPECT_TRUE(registered) << "the first stamp must publish drift gauges";
  EXPECT_EQ(rel->DriftState().observed_count, 1u);
}

}  // namespace
}  // namespace tempspec
