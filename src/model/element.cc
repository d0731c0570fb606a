#include "model/element.h"

#include "timex/calendar.h"
#include "util/string_util.h"

namespace tempspec {

void ValidTime::AppendTo(std::string* out) const {
  if (is_event_) {
    AppendTimePoint(begin_, out);
    return;
  }
  out->push_back('[');
  AppendTimePoint(begin_, out);
  out->append(", ");
  AppendTimePoint(end_, out);
  out->push_back(')');
}

std::string ValidTime::ToString() const {
  std::string out;
  AppendTo(&out);
  return out;
}

void Element::AppendTo(std::string* out) const {
  out->append("e#");
  AppendDecimal(element_surrogate, out);
  out->append(" obj#");
  AppendDecimal(object_surrogate, out);
  out->append(" tt=[");
  AppendTimePoint(tt_begin, out);
  out->append(", ");
  AppendTimePoint(tt_end, out);
  out->append(") vt=");
  valid.AppendTo(out);
  out->push_back(' ');
  attributes.AppendTo(out);
}

std::string Element::ToString() const {
  std::string out;
  AppendTo(&out);
  return out;
}

}  // namespace tempspec
