// Typed attribute values.
#ifndef TEMPSPEC_MODEL_VALUE_H_
#define TEMPSPEC_MODEL_VALUE_H_

#include <cstdint>
#include <ostream>
#include <string>
#include <variant>

#include "timex/time_point.h"

namespace tempspec {

enum class ValueType : uint8_t {
  kNull = 0,
  kBool = 1,
  kInt64 = 2,
  kDouble = 3,
  kString = 4,
  kTime = 5,  // a user-defined time (Section 2): an ordinary attribute whose
              // domain happens to be dates/times; no system-interpreted
              // semantics.
};

const char* ValueTypeToString(ValueType type);

/// \brief A dynamically typed attribute value.
class Value {
 public:
  Value() : repr_(std::monostate{}) {}
  Value(bool v) : repr_(v) {}                   // NOLINT(runtime/explicit)
  Value(int64_t v) : repr_(v) {}                // NOLINT(runtime/explicit)
  Value(int v) : repr_(static_cast<int64_t>(v)) {}  // NOLINT(runtime/explicit)
  Value(double v) : repr_(v) {}                 // NOLINT(runtime/explicit)
  Value(std::string v) : repr_(std::move(v)) {}  // NOLINT(runtime/explicit)
  Value(const char* v) : repr_(std::string(v)) {}  // NOLINT(runtime/explicit)
  Value(TimePoint v) : repr_(v) {}              // NOLINT(runtime/explicit)

  static Value Null() { return Value(); }

  ValueType type() const { return static_cast<ValueType>(repr_.index()); }
  bool is_null() const { return type() == ValueType::kNull; }

  bool AsBool() const { return std::get<bool>(repr_); }
  int64_t AsInt64() const { return std::get<int64_t>(repr_); }
  double AsDouble() const { return std::get<double>(repr_); }
  const std::string& AsString() const { return std::get<std::string>(repr_); }
  TimePoint AsTime() const { return std::get<TimePoint>(repr_); }

  /// \brief Appends the value's reply rendering: null, true/false, decimal
  /// integers, doubles as `ostream << double` prints them (6 significant
  /// digits, %g style), 'quoted' strings, and times as FormatTimePoint.
  void AppendTo(std::string* out) const;
  std::string ToString() const;

  friend bool operator==(const Value&, const Value&) = default;
  /// \brief Total order within a type; nulls first, cross-type by type tag.
  friend bool operator<(const Value& a, const Value& b) { return a.repr_ < b.repr_; }

  /// \brief Approximate heap + inline footprint in bytes (for storage stats).
  size_t ByteSize() const;

 private:
  std::variant<std::monostate, bool, int64_t, double, std::string, TimePoint> repr_;
};

std::ostream& operator<<(std::ostream& os, const Value& v);

}  // namespace tempspec

#endif  // TEMPSPEC_MODEL_VALUE_H_
