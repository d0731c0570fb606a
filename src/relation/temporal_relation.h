// TemporalRelation: the bitemporal relation engine of Section 2, with
// intensional enforcement of declared temporal specializations (Section 3).
//
// A relation is a sequence of historical states indexed by transaction time.
// Updates are:
//   Insert        — a new element enters the current state at a fresh,
//                   system-generated transaction time.
//   LogicalDelete — the element's existence interval [tt_b, tt_d) closes;
//                   nothing is physically removed.
//   Modify        — per Section 2, a logical deletion plus an insertion with
//                   a *fresh element surrogate*, both indexed by the single
//                   transaction time of the modifying transaction.
//
// Queries over transaction time (rollback) and valid time (timeslice) are in
// src/query; this class exposes the raw state-reconstruction primitives.
//
// Storage: elements_ holds every element in insertion order, and the
// StampStore holds the same elements' four stamps as columns; transaction
// time is monotone, so its sorted tt_start column is the transaction-time
// index. Both, with the per-surrogate partitions and the valid-time interval
// index, grow through one append path (AppendElement) that insert, recovery
// replay and vacuum rebuild share.
//
// Concurrent-access contract (for the morsel-parallel execution layer): the
// relation is single-writer. All const member functions — elements(),
// StateAt(), the index accessors, GetElement(), PartitionOf(), GetStats() —
// are safe to call from any number of threads simultaneously, PROVIDED no
// thread is concurrently executing a non-const member (Insert*, Modify,
// LogicalDelete, VacuumBefore, Checkpoint). The span returned by elements()
// and any ResultSet built over it are invalidated by every mutation, exactly
// like an iterator. The engine does no internal locking; interleaving
// readers with a writer is the caller's responsibility.
#ifndef TEMPSPEC_RELATION_TEMPORAL_RELATION_H_
#define TEMPSPEC_RELATION_TEMPORAL_RELATION_H_

#include <memory>
#include <span>
#include <unordered_map>
#include <vector>

#include "index/interval_index.h"
#include "model/element.h"
#include "model/schema.h"
#include "relation/stamp_store.h"
#include "spec/drift.h"
#include "spec/specialization.h"
#include "storage/backlog.h"
#include "storage/snapshot.h"
#include "timex/clock.h"
#include "util/result.h"

namespace tempspec {

class ThreadPool;

/// \brief How the relation treats valid stamps that are finer than the
/// schema's valid-time granularity (Section 2 gives each relation its own
/// granularity; whether the system snaps or rejects finer stamps is an
/// engine policy).
enum class GranularityPolicy : uint8_t {
  kIgnore,    // store stamps as supplied (granularity used semantically only)
  kTruncate,  // snap stamps to the granule start before storing
  kReject,    // refuse misaligned stamps
};

/// \brief Construction options for a relation.
struct RelationOptions {
  SchemaPtr schema;
  SpecializationSet specializations;
  /// Transaction-time stamp source; when null the relation owns a
  /// LogicalClock starting at the epoch with a 1s step.
  std::shared_ptr<TransactionClock> clock;
  /// Storage for the backlog; empty directory = in-memory only.
  BacklogStore::Options storage;
  /// Materialize a rollback snapshot every N operations (0 = disabled).
  size_t snapshot_interval = 0;
  GranularityPolicy granularity_policy = GranularityPolicy::kIgnore;
};

/// \brief A bitemporal relation with declared specializations.
class TemporalRelation {
 public:
  /// \brief Opens (and, when the storage directory holds a backlog,
  /// recovers) a relation. The declared specializations are validated
  /// against the schema and against any recovered extension.
  static Result<std::unique_ptr<TemporalRelation>> Open(RelationOptions options);

  const Schema& schema() const { return *schema_; }
  const SpecializationSet& specializations() const { return specs_; }
  TransactionClock& clock() { return *clock_; }
  BacklogStore& backlog() { return *backlog_; }
  const BacklogStore& backlog() const { return *backlog_; }
  SnapshotManager* snapshots() { return snapshots_.get(); }
  const SnapshotManager* snapshots() const { return snapshots_.get(); }

  // -- Updates ---------------------------------------------------------------

  /// \brief Inserts an event-stamped fact; returns the element surrogate.
  Result<ElementSurrogate> InsertEvent(ObjectSurrogate object, TimePoint vt,
                                       Tuple attributes);

  /// \brief Inserts an interval-stamped fact.
  Result<ElementSurrogate> InsertInterval(ObjectSurrogate object, TimePoint vt_begin,
                                          TimePoint vt_end, Tuple attributes);

  /// \brief Inserts with an explicit ValidTime (kind must match the schema).
  Result<ElementSurrogate> Insert(ObjectSurrogate object, ValidTime valid,
                                  Tuple attributes);

  /// \brief Logically deletes a current element.
  Status LogicalDelete(ElementSurrogate surrogate);

  /// \brief Modification per Section 2: logical delete + insert with a fresh
  /// surrogate, sharing one transaction time. Returns the new surrogate.
  Result<ElementSurrogate> Modify(ElementSurrogate surrogate, ValidTime new_valid,
                                  Tuple new_attributes);

  // -- State access ----------------------------------------------------------

  /// \brief Every element ever stored, in insertion order.
  std::span<const Element> elements() const { return elements_; }
  size_t size() const { return elements_.size(); }

  Result<Element> GetElement(ElementSurrogate surrogate) const;

  /// \brief The historical state at transaction time tt (rollback
  /// primitive); uses the snapshot cache when enabled. With a pool, the
  /// snapshot path copies elements morsel-parallel (identical results).
  std::vector<Element> StateAt(TimePoint tt) const;
  std::vector<Element> StateAt(TimePoint tt, ThreadPool* pool) const;

  /// \brief The current state.
  std::vector<Element> CurrentState() const;

  /// \brief The life-line of one object: its elements in insertion order
  /// (the per-surrogate partition of Section 2).
  std::vector<const Element*> PartitionOf(ObjectSurrogate object) const;

  /// \brief Distinct object surrogates, in first-appearance order.
  std::vector<ObjectSurrogate> Objects() const;

  /// \brief Transaction time of the last applied operation.
  TimePoint LastTransactionTime() const { return clock_->Last(); }

  // -- Indexes ---------------------------------------------------------------

  /// \brief Interval index over valid time (events indexed as unit-chronon
  /// intervals).
  const IntervalIndex& valid_index() const { return valid_index_; }

  /// \brief Columnar copy of every element's stamps, position-aligned with
  /// elements(): the input of the vectorized scan kernels (query/kernels.h).
  /// Its sorted tt_start column is also the transaction-time index
  /// (relation/stamp_store.h).
  const StampStore& stamps() const { return stamps_; }

  // -- Integrity ------------------------------------------------------------

  /// \brief Re-validates the full extension against the declared
  /// specializations (batch semantics, including deletion anchors).
  Status CheckExtension() const;

  /// \brief Persists in-memory backlog operations (durable relations).
  Status Checkpoint() { return backlog_->Checkpoint(); }

  /// \brief Physical deletion: discards every element whose existence
  /// interval ended at or before `horizon` (it is invisible to any rollback
  /// at or after the horizon). Rollback queries older than the horizon are
  /// no longer answerable — this deliberately trades the paper's
  /// keep-everything semantics for space, as production systems must.
  /// Indexes, partitions, the backlog (compacted, durably when applicable),
  /// and the snapshot cache are rebuilt; when compacting the backlog fails,
  /// the elements are left as they were. Returns the number of elements
  /// removed. Constraint-checker state is preserved: future updates must
  /// still be consistent with the full (pre-vacuum) history.
  Result<size_t> VacuumBefore(TimePoint horizon);

  /// \brief Point-in-time specialization-drift state: declared vs observed
  /// kind, Figure-1 pane occupancy, violation count (see spec/drift.h).
  DriftReport DriftState() const { return drift_.Report(); }

  /// \brief Cheap DRIFTED check (declared specialization with observed
  /// violations): the optimizer consults this per plan to fall back to the
  /// general strategy when the declaration is no longer trustworthy.
  bool IsDrifted() const { return drift_.Drifted(); }

  /// \brief Storage and population statistics.
  struct Stats {
    size_t elements = 0;          // every element ever stored
    size_t current_elements = 0;  // not logically deleted
    size_t objects = 0;           // distinct object surrogates
    size_t backlog_operations = 0;
    size_t backlog_bytes = 0;     // encoded size of all operations
    TimePoint first_transaction = TimePoint::Max();
    TimePoint last_transaction = TimePoint::Min();
  };
  Stats GetStats() const;

 private:
  explicit TemporalRelation(RelationOptions options);

  Result<ElementSurrogate> InsertAt(TimePoint tt, ObjectSurrogate object,
                                    ValidTime valid, Tuple attributes);
  Status LogicalDeleteAt(TimePoint tt, ElementSurrogate surrogate);
  Status ApplyRecoveredEntries();
  /// \brief Appends `e` at the next position with its stamp row, partition
  /// entry and index entries: the one append path of insert, recovery replay
  /// and vacuum rebuild. Aborts if `e`'s transaction time precedes the last
  /// one (transaction time is monotone by construction).
  void AppendElement(Element e);

  SchemaPtr schema_;
  SpecializationSet specs_;
  std::shared_ptr<TransactionClock> clock_;
  std::unique_ptr<BacklogStore> backlog_;
  std::unique_ptr<SnapshotManager> snapshots_;
  ConstraintChecker checker_;
  RelationDriftMonitor drift_;
  size_t snapshot_interval_ = 0;
  GranularityPolicy granularity_policy_ = GranularityPolicy::kIgnore;
  SurrogateGenerator surrogates_;

  std::vector<Element> elements_;  // authoritative bitemporal store
  std::unordered_map<ElementSurrogate, size_t> by_surrogate_;
  std::unordered_map<ObjectSurrogate, std::vector<size_t>> partitions_;
  std::vector<ObjectSurrogate> object_order_;
  IntervalIndex valid_index_;
  StampStore stamps_;
};

}  // namespace tempspec

#endif  // TEMPSPEC_RELATION_TEMPORAL_RELATION_H_
