#include "spec/drift.h"

#include <sstream>

#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "spec/lattice.h"

namespace tempspec {

namespace {

// The drift metric names embed the relation name, so the handles cannot be
// cached in the function-local statics the TS_* macros use; the monitor
// caches them as members instead, looked up on its first stamp (the
// violations counter on its first violation), after which updates are
// lock-free.
std::string DriftMetricName(const char* what, const std::string& relation) {
  return std::string("tempspec.drift.") + what + "." + relation;
}

}  // namespace

std::string DriftReport::ToString() const {
  std::ostringstream ss;
  ss << "relation " << relation << "\n";
  ss << "  declared: "
     << (has_declaration ? EventSpecKindToString(declared) : "(none)") << "\n";
  if (observed_count == 0) {
    ss << "  observed: (no data)\n";
  } else {
    ss << "  observed: " << EventSpecKindToString(observed) << " over "
       << observed_count << " stamps, offsets [" << profile.min_offset_us
       << "us, " << profile.max_offset_us << "us]\n";
  }
  if (has_declaration) {
    ss << "  state: "
       << (observed_count == 0 ? "no data"
                               : (conforming ? "conforming" : "DRIFTED"))
       << ", lattice distance " << lattice_distance << ", violations "
       << violations << "\n";
  }
  ss << "  figure-1 occupancy:\n";
  for (const DriftRegionCount& r : regions) {
    ss << "    " << r.count << "  " << EventSpecKindToString(r.kind) << " ["
       << r.construction << "]\n";
  }
  return ss.str();
}

size_t EventKindLatticeDistance(EventSpecKind a, EventSpecKind b) {
  auto d = SpecLattice::EventTaxonomy().Distance(EventSpecKindToString(a),
                                                 EventSpecKindToString(b));
  // Every kind is a node of the (connected) Figure-2 lattice; Distance can
  // only fail on foreign names.
  return d.ok() ? *d : 0;
}

bool EventKindConforms(EventSpecKind declared, EventSpecKind observed) {
  return SpecLattice::EventTaxonomy().IsDescendant(
      EventSpecKindToString(declared), EventSpecKindToString(observed));
}

RelationDriftMonitor::RelationDriftMonitor(std::string relation_name,
                                           const SpecializationSet& declared,
                                           Granularity granularity,
                                           Duration delta_small,
                                           Duration delta_large)
    : relation_name_(std::move(relation_name)),
      granularity_(granularity),
      panes_(EnumerateEventRegions(delta_small, delta_large)),
      profile_(granularity),
      pane_counts_(panes_.size(), 0) {
  for (const EventSpecialization& spec : declared.event_specs()) {
    if (spec.anchor() != TransactionAnchor::kInsertion) continue;
    declared_specs_.push_back(spec);
  }
  if (!declared_specs_.empty()) {
    has_declaration_ = true;
    // The declaration as a whole is the intersection of the declared bands;
    // classify it to one kind for the lattice comparison. Any degenerate
    // declaration dominates (its band is the diagonal).
    Band joint = Band::All();
    bool degenerate = false;
    for (const EventSpecialization& spec : declared_specs_) {
      joint = joint.Intersect(spec.band());
      degenerate = degenerate || spec.kind() == EventSpecKind::kDegenerate;
    }
    declared_kind_ = degenerate ? EventSpecKind::kDegenerate
                                : EventSpecialization::ClassifyBand(joint);
    distance_ = EventKindLatticeDistance(declared_kind_, observed_kind_);
  }
}

bool RelationDriftMonitor::SatisfiesDeclared(TimePoint tt, TimePoint vt) const {
  for (const EventSpecialization& spec : declared_specs_) {
    const bool ok = spec.kind() == EventSpecKind::kDegenerate
                        ? granularity_.Same(tt, vt)
                        : spec.Satisfies(tt, vt);
    if (!ok) return false;
  }
  return true;
}

void RelationDriftMonitor::Observe(TimePoint tt, TimePoint vt) {
  std::lock_guard<std::mutex> lock(mu_);
  MetricsRegistry& reg = MetricsRegistry::Instance();
  if (observed_stamps_ == nullptr) {
    observed_kind_gauge_ =
        &reg.GetGauge(DriftMetricName("observed_kind", relation_name_));
    distance_gauge_ =
        &reg.GetGauge(DriftMetricName("lattice_distance", relation_name_));
    observed_stamps_ =
        &reg.GetCounter(DriftMetricName("observed_stamps", relation_name_));
  }
  profile_.Observe(tt, vt);
  for (size_t i = 0; i < panes_.size(); ++i) {
    // The degenerate pane uses chronon-equality at the relation's
    // granularity (mirroring CheckElement); every other pane is the raw
    // Figure-1 band test the property-test oracle checks.
    const bool in_pane = panes_[i].kind == EventSpecKind::kDegenerate
                             ? granularity_.Same(tt, vt)
                             : panes_[i].band.Contains(tt, vt);
    if (in_pane) ++pane_counts_[i];
  }
  const bool violated = has_declaration_ && !SatisfiesDeclared(tt, vt);
  if (violated) ++violations_;
  const EventSpecKind observed = profile_.ObservedKind();
  if (observed != observed_kind_) {
    observed_kind_ = observed;
    distance_ = has_declaration_
                    ? EventKindLatticeDistance(declared_kind_, observed)
                    : 0;
  }
  if (violated && violations_ == 1) {
    violations_counter_ =
        &reg.GetCounter(DriftMetricName("violations", relation_name_));
    // The conforming→drifted transition is a decision-plane milestone: it
    // flips Drifted() and thus the optimizer's specialization gate, so the
    // flight recorder keeps the exact moment and relation.
    TS_FLIGHT(FlightCategory::kDrift, FlightCode::kDriftVerdict, observed,
              distance_, relation_name_);
  }
  observed_kind_gauge_->Set(static_cast<int64_t>(observed));
  distance_gauge_->Set(static_cast<int64_t>(distance_));
  observed_stamps_->Increment();
  if (violated) violations_counter_->Increment();
}

bool RelationDriftMonitor::Drifted() const {
  if (!has_declaration_) return false;
  std::lock_guard<std::mutex> lock(mu_);
  return violations_ > 0;
}

DriftReport RelationDriftMonitor::Report() const {
  std::lock_guard<std::mutex> lock(mu_);
  DriftReport report;
  report.relation = relation_name_;
  report.has_declaration = has_declaration_;
  report.declared = declared_kind_;
  report.profile = profile_.Profile();
  report.observed_count = profile_.count();
  report.observed = profile_.ObservedKind();
  report.violations = violations_;
  if (has_declaration_ && report.observed_count > 0) {
    report.lattice_distance = distance_;
    report.conforming = violations_ == 0;
  }
  report.regions.reserve(panes_.size());
  for (size_t i = 0; i < panes_.size(); ++i) {
    report.regions.push_back(DriftRegionCount{
        panes_[i].construction, panes_[i].kind, pane_counts_[i]});
  }
  return report;
}

}  // namespace tempspec
