// Columnar stamp store: the relation's one position-ordered copy of the four
// stamps that scans read.
//
// Every execution strategy ultimately evaluates a pair of half-plane tests
// over (tt, vt) per candidate element (Figure 1: each pane IS such a pair).
// Walking std::vector<Element> pays an ~88-byte stride and a Tuple pointer
// chase per row just to read four int64 stamps. The StampStore keeps those
// stamps — and only those — in four parallel flat arrays, position-aligned
// with relation.elements(), so a scan kernel touches 8–32 contiguous bytes
// per row and the compiler can auto-vectorize the predicate (see
// query/kernels.h). It has one append point, called by the relation's single
// append-an-element path (insert, recovery replay and vacuum rebuild alike),
// and is derived state, never persisted.
//
// Transaction time is monotone by construction, so the tt_start column is
// sorted and doubles as the transaction-time index (Section 3.1's
// append-only, time-ordered store): a transaction-time window is a binary
// search over it.
//
// Event stamps are stored as unit-chronon intervals [at, at+1), mirroring
// how the valid-time interval index stores them: the generic half-open
// interval predicate `vt_start < hi && lo < vt_end` then gives exactly the
// event test `lo <= at && at < hi` with no per-row kind branch.
#ifndef TEMPSPEC_RELATION_STAMP_STORE_H_
#define TEMPSPEC_RELATION_STAMP_STORE_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "model/element.h"
#include "timex/time_point.h"
#include "util/status.h"

namespace tempspec {

/// \brief Borrowed raw-pointer view of the stamp columns, for scan kernels.
///
/// Validity matches relation.elements(): any mutation of the relation
/// invalidates the pointers (vectors may reallocate).
struct StampColumns {
  const int64_t* tt_start = nullptr;  // insertion tt (micros), non-decreasing
  const int64_t* tt_end = nullptr;    // deletion tt; INT64_MAX while current
  const int64_t* vt_start = nullptr;  // valid begin (event: at)
  const int64_t* vt_end = nullptr;    // valid end (event: at + 1)
  size_t size = 0;
};

/// \brief Position-aligned columnar copy of every element's four stamps.
class StampStore {
 public:
  /// \brief Appends the stamps of `e` at the next position. Must be called
  /// in element-position order (the relation appends exactly when it
  /// appends to elements_). Rejects a transaction time earlier than the
  /// last one: tt_start must stay sorted to serve as the transaction-time
  /// index.
  Status Append(const Element& e) {
    const int64_t tt = e.tt_begin.micros();
    if (!tt_start_.empty() && tt < tt_start_.back()) {
      return Status::InvalidArgument(
          "stamp store requires non-decreasing transaction times: ",
          e.tt_begin.ToString(), " after ",
          TimePoint::FromMicros(tt_start_.back()).ToString());
    }
    tt_start_.push_back(tt);
    tt_end_.push_back(e.tt_end.micros());
    vt_start_.push_back(e.valid.begin().micros());
    vt_end_.push_back(e.valid.is_event() ? e.valid.at().micros() + 1
                                         : e.valid.end().micros());
    return Status::OK();
  }

  /// \brief Mirrors a logical deletion: closes the existence interval of the
  /// element at `position`.
  void SetTtEnd(size_t position, TimePoint tt) {
    tt_end_[position] = tt.micros();
  }

  /// \brief Drops all columns (vacuum rebuild).
  void Clear() {
    tt_start_.clear();
    tt_end_.clear();
    vt_start_.clear();
    vt_end_.clear();
  }

  size_t size() const { return tt_start_.size(); }

  StampColumns columns() const {
    StampColumns c;
    c.tt_start = tt_start_.data();
    c.tt_end = tt_end_.data();
    c.vt_start = vt_start_.data();
    c.vt_end = vt_end_.data();
    c.size = tt_start_.size();
    return c;
  }

 private:
  std::vector<int64_t> tt_start_;
  std::vector<int64_t> tt_end_;
  std::vector<int64_t> vt_start_;
  std::vector<int64_t> vt_end_;
};

}  // namespace tempspec

#endif  // TEMPSPEC_RELATION_STAMP_STORE_H_
