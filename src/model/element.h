// Temporal elements — the unit of storage of a temporal relation (Section 2).
//
// An element carries: an element surrogate (system-generated identity used to
// delimit its existence interval in the database), an object surrogate
// (identity of the modeled real-world object; all elements of one object form
// its "life-line"), the transaction times tt_b (insertion) and tt_d (logical
// deletion, open = until-changed), the valid time-stamp (event or interval),
// and the explicit attribute values.
#ifndef TEMPSPEC_MODEL_ELEMENT_H_
#define TEMPSPEC_MODEL_ELEMENT_H_

#include <cstdint>
#include <string>

#include "model/tuple.h"
#include "timex/interval.h"
#include "timex/time_point.h"
#include "util/result.h"

namespace tempspec {

/// \brief System-generated identity of an element. Never reused: a logical
/// delete followed by re-insert yields a fresh surrogate so that tt_b / tt_d
/// points stay unambiguous (Section 2).
using ElementSurrogate = uint64_t;

/// \brief Identity of the modeled real-world object.
using ObjectSurrogate = uint64_t;

constexpr ElementSurrogate kInvalidElementSurrogate = 0;

/// \brief The valid time-stamp of an element: a single instant for event
/// relations, a half-open interval for interval relations.
class ValidTime {
 public:
  ValidTime() : begin_(TimePoint::Min()), end_(TimePoint::Min()), is_event_(true) {}

  static ValidTime Event(TimePoint at) { return ValidTime(at, at, /*event=*/true); }
  static Result<ValidTime> Interval(TimePoint begin, TimePoint end) {
    if (end < begin) {
      return Status::InvalidArgument("valid interval end ", end.ToString(),
                                     " precedes begin ", begin.ToString());
    }
    return ValidTime(begin, end, /*event=*/false);
  }
  static ValidTime IntervalUnchecked(TimePoint begin, TimePoint end) {
    return ValidTime(begin, end, /*event=*/false);
  }

  bool is_event() const { return is_event_; }
  bool is_interval() const { return !is_event_; }

  /// \brief The instant of an event stamp.
  TimePoint at() const { return begin_; }
  /// \brief vt_b of an interval stamp (== at() for events).
  TimePoint begin() const { return begin_; }
  /// \brief vt_e of an interval stamp (== at() for events).
  TimePoint end() const { return end_; }

  TimeInterval AsInterval() const { return TimeInterval(begin_, end_); }

  /// \brief True if the fact was valid at `tp`: events match exactly, interval
  /// stamps use half-open containment.
  bool ValidAt(TimePoint tp) const {
    return is_event_ ? begin_ == tp : (begin_ <= tp && tp < end_);
  }

  /// \brief Appends the instant of an event stamp, "[vt_b, vt_e)" of an
  /// interval stamp.
  void AppendTo(std::string* out) const;
  std::string ToString() const;

  friend bool operator==(const ValidTime&, const ValidTime&) = default;

 private:
  ValidTime(TimePoint begin, TimePoint end, bool event)
      : begin_(begin), end_(end), is_event_(event) {}

  TimePoint begin_;
  TimePoint end_;
  bool is_event_;
};

/// \brief A stored temporal element.
struct Element {
  ElementSurrogate element_surrogate = kInvalidElementSurrogate;
  ObjectSurrogate object_surrogate = 0;
  /// Insertion transaction time tt_b.
  TimePoint tt_begin = TimePoint::Min();
  /// Logical-deletion transaction time tt_d; Max() while current.
  TimePoint tt_end = TimePoint::Max();
  ValidTime valid;
  Tuple attributes;

  /// \brief The existence interval [tt_b, tt_d) of the element (Section 2).
  TimeInterval ExistenceInterval() const { return TimeInterval(tt_begin, tt_end); }

  /// \brief True if the element belongs to the historical state at
  /// transaction time `tt`.
  bool ExistsAt(TimePoint tt) const { return tt_begin <= tt && tt < tt_end; }

  /// \brief True if the element has not been logically deleted.
  bool IsCurrent() const { return tt_end.IsMax(); }

  /// \brief Appends the one-line reply rendering of the element:
  /// "e#<surrogate> obj#<object> tt=[tt_b, tt_d) vt=<stamp> (<values>)".
  void AppendTo(std::string* out) const;
  std::string ToString() const;
};

/// \brief Monotone surrogate generators (never yield kInvalidElementSurrogate).
class SurrogateGenerator {
 public:
  explicit SurrogateGenerator(uint64_t start = 1) : next_(start == 0 ? 1 : start) {}
  uint64_t Next() { return next_++; }
  uint64_t Peek() const { return next_; }
  /// \brief Advances past ids already in use (recovery).
  void EnsureAbove(uint64_t used) {
    if (next_ <= used) next_ = used + 1;
  }

 private:
  uint64_t next_;
};

}  // namespace tempspec

#endif  // TEMPSPEC_MODEL_ELEMENT_H_
