#include "relation/temporal_relation.h"

#include <algorithm>

#include "obs/metrics.h"
#include "obs/span_store.h"

namespace tempspec {

TemporalRelation::TemporalRelation(RelationOptions options)
    : schema_(std::move(options.schema)),
      specs_(std::move(options.specializations)),
      clock_(options.clock
                 ? std::move(options.clock)
                 : std::make_shared<LogicalClock>(TimePoint::FromMicros(0),
                                                  Duration::Seconds(1))),
      checker_(specs_, schema_->valid_granularity()),
      drift_(schema_->relation_name(), specs_, schema_->valid_granularity()),
      snapshot_interval_(options.snapshot_interval),
      granularity_policy_(options.granularity_policy) {}

Result<std::unique_ptr<TemporalRelation>> TemporalRelation::Open(
    RelationOptions options) {
  if (!options.schema) {
    return Status::InvalidArgument("relation requires a schema");
  }
  TS_RETURN_NOT_OK(options.specializations.ValidateFor(*options.schema));

  auto backlog_result = BacklogStore::Open(options.storage);
  TS_RETURN_NOT_OK(backlog_result.status());

  auto relation =
      std::unique_ptr<TemporalRelation>(new TemporalRelation(std::move(options)));
  relation->backlog_ = std::move(backlog_result).ValueOrDie();
  if (relation->backlog_->size() > 0) {
    TS_RETURN_NOT_OK(relation->ApplyRecoveredEntries());
  }
  // Snapshots are created after recovery so recovered operations are covered.
  if (relation->snapshot_interval_ > 0) {
    relation->snapshots_ = std::make_unique<SnapshotManager>(
        relation->backlog_.get(), relation->snapshot_interval_);
    relation->snapshots_->Refresh();
  }
  return relation;
}

Status TemporalRelation::ApplyRecoveredEntries() {
  // Rebuild the in-memory store, indexes, and constraint-checker state from
  // the recovered backlog, validating as we go.
  for (const BacklogEntry& entry : backlog_->entries()) {
    if (entry.op == BacklogOpType::kInsert) {
      const Element& e = entry.element;
      TS_RETURN_NOT_OK(e.attributes.Conforms(*schema_));
      // Recovered elements feed the drift monitor too: the observed profile
      // describes the data in the relation, not just this process's inserts.
      drift_.Observe(e.tt_begin, e.valid.begin());
      TS_RETURN_NOT_OK(checker_.OnInsert(e));
      by_surrogate_[e.element_surrogate] = elements_.size();
      if (partitions_.find(e.object_surrogate) == partitions_.end()) {
        object_order_.push_back(e.object_surrogate);
      }
      partitions_[e.object_surrogate].push_back(elements_.size());
      IndexElement(e, elements_.size());
      elements_.push_back(e);
      surrogates_.EnsureAbove(e.element_surrogate);
      clock_->EnsureAfter(e.tt_begin);
    } else {
      auto it = by_surrogate_.find(entry.target);
      if (it == by_surrogate_.end()) {
        return Status::Corruption("recovered delete of unknown element #",
                                  entry.target);
      }
      Element& e = elements_[it->second];
      e.tt_end = entry.tt;
      stamps_.SetTtEnd(it->second, entry.tt);
      TS_RETURN_NOT_OK(checker_.OnLogicalDelete(e));
      clock_->EnsureAfter(entry.tt);
    }
  }
  return Status::OK();
}

void TemporalRelation::IndexElement(const Element& e, size_t position) {
  // Transaction time is monotone by construction, so the tt index is always
  // append-only regardless of specialization.
  tt_index_.Append(e.tt_begin, position).Check();
  // The columnar stamp store is position-aligned with elements_: every
  // caller indexes exactly the element it is about to append (or, on vacuum
  // rebuild, position i of the compacted array), so appending here keeps the
  // columns in lockstep across insert, recovery, and vacuum.
  stamps_.Append(e);
  if (e.valid.is_event()) {
    valid_index_.Insert(e.valid.at(),
                        TimePoint::FromMicros(e.valid.at().micros() + 1),
                        position);
  } else {
    valid_index_.Insert(e.valid.begin(), e.valid.end(), position);
  }
}

Result<ElementSurrogate> TemporalRelation::Insert(ObjectSurrogate object,
                                                  ValidTime valid,
                                                  Tuple attributes) {
  return InsertAt(clock_->Next(), object, std::move(valid),
                  std::move(attributes));
}

Result<ElementSurrogate> TemporalRelation::InsertEvent(ObjectSurrogate object,
                                                       TimePoint vt,
                                                       Tuple attributes) {
  return Insert(object, ValidTime::Event(vt), std::move(attributes));
}

Result<ElementSurrogate> TemporalRelation::InsertInterval(ObjectSurrogate object,
                                                          TimePoint vt_begin,
                                                          TimePoint vt_end,
                                                          Tuple attributes) {
  TS_ASSIGN_OR_RETURN(ValidTime valid, ValidTime::Interval(vt_begin, vt_end));
  return Insert(object, valid, std::move(attributes));
}

Result<ElementSurrogate> TemporalRelation::InsertAt(TimePoint tt,
                                                    ObjectSurrogate object,
                                                    ValidTime valid,
                                                    Tuple attributes) {
  if (schema_->IsEventRelation() != valid.is_event()) {
    return Status::InvalidArgument(
        "relation '", schema_->relation_name(), "' is ",
        schema_->IsEventRelation() ? "event" : "interval",
        "-stamped; the supplied valid time is not");
  }
  TS_RETURN_NOT_OK(attributes.Conforms(*schema_));

  if (granularity_policy_ != GranularityPolicy::kIgnore) {
    const Granularity g = schema_->valid_granularity();
    const bool begin_aligned = g.Truncate(valid.begin()) == valid.begin();
    const bool end_aligned =
        valid.is_event() || g.Truncate(valid.end()) == valid.end();
    if (!begin_aligned || !end_aligned) {
      if (granularity_policy_ == GranularityPolicy::kReject) {
        return Status::InvalidArgument(
            "valid time ", valid.ToString(), " is finer than the relation's ",
            g.ToString(), " granularity");
      }
      valid = valid.is_event()
                  ? ValidTime::Event(g.Truncate(valid.at()))
                  : ValidTime::IntervalUnchecked(g.Truncate(valid.begin()),
                                                 g.Truncate(valid.end()));
    }
  }

  Element e;
  e.element_surrogate = surrogates_.Next();
  e.object_surrogate = object;
  e.tt_begin = tt;
  e.tt_end = TimePoint::Max();
  e.valid = std::move(valid);
  e.attributes = std::move(attributes);

  // Drift observation runs before enforcement on purpose: the monitor
  // counts *attempted* stamps, including the escaping inserts the checker
  // is about to reject — exactly the drift signal enforcement masks.
  drift_.Observe(tt, e.valid.begin());

  // Intensional enforcement: reject any element that would take the
  // extension outside the declared types.
  TS_RETURN_NOT_OK(checker_.OnInsert(e));

  BacklogEntry entry;
  entry.op = BacklogOpType::kInsert;
  entry.tt = tt;
  entry.element = e;
  TS_RETURN_NOT_OK(backlog_->Append(entry));

  by_surrogate_[e.element_surrogate] = elements_.size();
  if (partitions_.find(object) == partitions_.end()) {
    object_order_.push_back(object);
  }
  partitions_[object].push_back(elements_.size());
  IndexElement(e, elements_.size());
  const ElementSurrogate id = e.element_surrogate;
  elements_.push_back(std::move(e));
  if (snapshots_) snapshots_->Refresh();
  return id;
}

Status TemporalRelation::LogicalDelete(ElementSurrogate surrogate) {
  return LogicalDeleteAt(clock_->Next(), surrogate);
}

Status TemporalRelation::LogicalDeleteAt(TimePoint tt,
                                         ElementSurrogate surrogate) {
  auto it = by_surrogate_.find(surrogate);
  if (it == by_surrogate_.end()) {
    return Status::NotFound("no element #", surrogate, " in relation '",
                            schema_->relation_name(), "'");
  }
  Element& e = elements_[it->second];
  if (!e.IsCurrent()) {
    return Status::InvalidArgument("element #", surrogate,
                                   " was already logically deleted at ",
                                   e.tt_end.ToString());
  }

  Element probe = e;
  probe.tt_end = tt;
  TS_RETURN_NOT_OK(checker_.OnLogicalDelete(probe));

  BacklogEntry entry;
  entry.op = BacklogOpType::kLogicalDelete;
  entry.tt = tt;
  entry.target = surrogate;
  TS_RETURN_NOT_OK(backlog_->Append(entry));

  e.tt_end = tt;
  stamps_.SetTtEnd(it->second, tt);
  if (snapshots_) snapshots_->Refresh();
  return Status::OK();
}

Result<ElementSurrogate> TemporalRelation::Modify(ElementSurrogate surrogate,
                                                  ValidTime new_valid,
                                                  Tuple new_attributes) {
  // One transaction, one historical state: the deletion and the insertion
  // share a single transaction time (Section 2).
  auto it = by_surrogate_.find(surrogate);
  if (it == by_surrogate_.end()) {
    return Status::NotFound("no element #", surrogate, " in relation '",
                            schema_->relation_name(), "'");
  }
  const ObjectSurrogate object = elements_[it->second].object_surrogate;
  const TimePoint tt = clock_->Next();
  TS_RETURN_NOT_OK(LogicalDeleteAt(tt, surrogate));
  return InsertAt(tt, object, std::move(new_valid), std::move(new_attributes));
}

Result<Element> TemporalRelation::GetElement(ElementSurrogate surrogate) const {
  auto it = by_surrogate_.find(surrogate);
  if (it == by_surrogate_.end()) {
    return Status::NotFound("no element #", surrogate);
  }
  return elements_[it->second];
}

std::vector<Element> TemporalRelation::StateAt(TimePoint tt) const {
  return StateAt(tt, nullptr);
}

std::vector<Element> TemporalRelation::StateAt(TimePoint tt,
                                               ThreadPool* pool) const {
  if (snapshots_) return snapshots_->StateAt(tt, pool);
  std::vector<Element> out;
  for (const Element& e : elements_) {
    if (e.ExistsAt(tt)) out.push_back(e);
  }
  return out;
}

std::vector<Element> TemporalRelation::CurrentState() const {
  std::vector<Element> out;
  for (const Element& e : elements_) {
    if (e.IsCurrent()) out.push_back(e);
  }
  return out;
}

std::vector<const Element*> TemporalRelation::PartitionOf(
    ObjectSurrogate object) const {
  std::vector<const Element*> out;
  auto it = partitions_.find(object);
  if (it == partitions_.end()) return out;
  out.reserve(it->second.size());
  for (size_t pos : it->second) out.push_back(&elements_[pos]);
  return out;
}

std::vector<ObjectSurrogate> TemporalRelation::Objects() const {
  return object_order_;
}

Status TemporalRelation::CheckExtension() const {
  return checker_.CheckExtension(elements_);
}

Result<size_t> TemporalRelation::VacuumBefore(TimePoint horizon) {
  // Vacuum is a background span: the collect / compact / reindex stages (and
  // ReplaceAll's own side_build / rename / wal_reset stages) are timed into
  // one retained trace, so a slow vacuum is attributable after the fact.
  TraceContext span;
  span.Begin("background.vacuum");
  std::vector<Element> kept;
  kept.reserve(elements_.size());
  {
    TraceContext::StageScope stage(&span, "collect");
    for (Element& e : elements_) {
      // Only elements whose existence interval has closed can be dead;
      // current elements (open tt_d) always survive.
      if (!e.tt_end.IsMax() && e.tt_end <= horizon) continue;
      kept.push_back(std::move(e));
    }
  }
  const size_t removed = elements_.size() - kept.size();
  span.AddCounter("elements_kept", kept.size());
  span.AddCounter("elements_dropped", removed);
  if (removed == 0) {
    elements_ = std::move(kept);
    return size_t{0};
  }

  // Compact the backlog: re-derive the operation history of the survivors.
  std::vector<BacklogEntry> compacted;
  {
    TraceContext::StageScope stage(&span, "compact");
    compacted.reserve(kept.size() * 2);
    for (const Element& e : kept) {
      BacklogEntry ins;
      ins.op = BacklogOpType::kInsert;
      ins.tt = e.tt_begin;
      ins.element = e;
      ins.element.tt_end = TimePoint::Max();  // the delete is its own entry
      compacted.push_back(std::move(ins));
    }
    for (const Element& e : kept) {
      if (e.tt_end.IsMax()) continue;
      BacklogEntry del;
      del.op = BacklogOpType::kLogicalDelete;
      del.tt = e.tt_end;
      del.target = e.element_surrogate;
      compacted.push_back(std::move(del));
    }
    std::sort(compacted.begin(), compacted.end(),
              [](const BacklogEntry& a, const BacklogEntry& b) {
                return a.tt < b.tt;
              });
  }
  TS_RETURN_NOT_OK(backlog_->ReplaceAll(std::move(compacted), &span));

  // Rebuild the in-memory store and indexes.
  {
    TraceContext::StageScope reindex_stage(&span, "reindex");
    elements_ = std::move(kept);
    by_surrogate_.clear();
    partitions_.clear();
    object_order_.clear();
    tt_index_ = AppendOnlyIndex();
    valid_index_ = IntervalIndex();
    stamps_.Clear();
    for (size_t i = 0; i < elements_.size(); ++i) {
      const Element& e = elements_[i];
      by_surrogate_[e.element_surrogate] = i;
      if (partitions_.find(e.object_surrogate) == partitions_.end()) {
        object_order_.push_back(e.object_surrogate);
      }
      partitions_[e.object_surrogate].push_back(i);
      IndexElement(e, i);
    }
    if (snapshot_interval_ > 0) {
      snapshots_ =
          std::make_unique<SnapshotManager>(backlog_.get(), snapshot_interval_);
      snapshots_->Refresh();
    }
  }
  SpanStore::Instance().Record(span);
  return removed;
}

TemporalRelation::Stats TemporalRelation::GetStats() const {
  Stats stats;
  stats.elements = elements_.size();
  for (const Element& e : elements_) {
    if (e.IsCurrent()) ++stats.current_elements;
  }
  stats.objects = object_order_.size();
  stats.backlog_operations = backlog_->size();
  stats.backlog_bytes = backlog_->EncodedBytes();
  if (!elements_.empty()) {
    stats.first_transaction = elements_.front().tt_begin;
  }
  for (const BacklogEntry& entry : backlog_->entries()) {
    if (entry.tt > stats.last_transaction) stats.last_transaction = entry.tt;
  }
  return stats;
}

}  // namespace tempspec
