#include "model/value.h"

#include <charconv>

#include "timex/calendar.h"
#include "util/string_util.h"

namespace tempspec {

const char* ValueTypeToString(ValueType type) {
  switch (type) {
    case ValueType::kNull:
      return "NULL";
    case ValueType::kBool:
      return "BOOL";
    case ValueType::kInt64:
      return "INT64";
    case ValueType::kDouble:
      return "DOUBLE";
    case ValueType::kString:
      return "STRING";
    case ValueType::kTime:
      return "TIME";
  }
  return "UNKNOWN";
}

void Value::AppendTo(std::string* out) const {
  switch (type()) {
    case ValueType::kNull:
      out->append("null");
      return;
    case ValueType::kBool:
      out->append(AsBool() ? "true" : "false");
      return;
    case ValueType::kInt64:
      AppendDecimal(AsInt64(), out);
      return;
    case ValueType::kDouble: {
      // "%.6g" is what a default-formatted ostream prints for a double.
      char buf[32];
      out->append(buf, std::to_chars(buf, buf + sizeof(buf), AsDouble(),
                                     std::chars_format::general, 6)
                           .ptr);
      return;
    }
    case ValueType::kString:
      out->push_back('\'');
      out->append(AsString());
      out->push_back('\'');
      return;
    case ValueType::kTime:
      AppendTimePoint(AsTime(), out);
      return;
  }
  out->push_back('?');
}

std::string Value::ToString() const {
  std::string out;
  AppendTo(&out);
  return out;
}

size_t Value::ByteSize() const {
  switch (type()) {
    case ValueType::kNull:
      return 1;
    case ValueType::kBool:
      return 1 + 1;
    case ValueType::kInt64:
    case ValueType::kDouble:
    case ValueType::kTime:
      return 1 + 8;
    case ValueType::kString:
      return 1 + 4 + AsString().size();
  }
  return 1;
}

std::ostream& operator<<(std::ostream& os, const Value& v) {
  return os << v.ToString();
}

}  // namespace tempspec
