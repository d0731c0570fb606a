// Small string helpers shared across modules.
#ifndef TEMPSPEC_UTIL_STRING_UTIL_H_
#define TEMPSPEC_UTIL_STRING_UTIL_H_

#include <charconv>
#include <string>
#include <string_view>
#include <vector>

namespace tempspec {

/// \brief Appends the decimal digits of an integer (what std::to_string
/// prints) without a temporary string.
template <typename Int>
void AppendDecimal(Int value, std::string* out) {
  char buf[24];
  out->append(buf, std::to_chars(buf, buf + sizeof(buf), value).ptr);
}

/// \brief Splits on a single-character delimiter; empty fields are kept.
std::vector<std::string> Split(std::string_view s, char delim);

/// \brief Joins with a separator.
std::string Join(const std::vector<std::string>& parts, std::string_view sep);

/// \brief ASCII lowercase copy.
std::string ToLower(std::string_view s);

/// \brief Trims ASCII whitespace from both ends.
std::string_view Trim(std::string_view s);

/// \brief True if `s` begins with `prefix`.
bool StartsWith(std::string_view s, std::string_view prefix);

}  // namespace tempspec

#endif  // TEMPSPEC_UTIL_STRING_UTIL_H_
