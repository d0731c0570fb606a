#include "timex/calendar.h"

#include <charconv>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>

namespace tempspec {

namespace {

// Floor division/modulo for possibly-negative microsecond counts.
int64_t FloorDiv(int64_t a, int64_t b) {
  int64_t q = a / b;
  if ((a % b != 0) && ((a < 0) != (b < 0))) --q;
  return q;
}

// a - FloorDiv(a, b) * b, without the product: it overflows for
// micros within a day of the int64 range's ends.
int64_t FloorMod(int64_t a, int64_t b) {
  const int64_t r = a % b;
  return (r != 0 && ((r < 0) != (b < 0))) ? r + b : r;
}

// Writes the low `width` decimal digits of non-negative `v`, zero-padded.
char* PutDigits(char* p, int32_t v, int width) {
  for (int i = width - 1; i >= 0; --i) {
    p[i] = static_cast<char>('0' + v % 10);
    v /= 10;
  }
  return p + width;
}

}  // namespace

int64_t DaysFromCivil(int32_t y, int32_t m, int32_t d) {
  // Hinnant's days_from_civil, shifting the year so the "era" starts Mar 1.
  int64_t yy = y;
  yy -= m <= 2;
  const int64_t era = (yy >= 0 ? yy : yy - 399) / 400;
  const unsigned yoe = static_cast<unsigned>(yy - era * 400);             // [0, 399]
  const unsigned doy = (153u * (m + (m > 2 ? -3 : 9)) + 2) / 5 + d - 1;   // [0, 365]
  const unsigned doe = yoe * 365 + yoe / 4 - yoe / 100 + doy;             // [0, 146096]
  return era * 146097 + static_cast<int64_t>(doe) - 719468;
}

void CivilFromDays(int64_t z, int32_t* year, int32_t* month, int32_t* day) {
  z += 719468;
  const int64_t era = (z >= 0 ? z : z - 146096) / 146097;
  const unsigned doe = static_cast<unsigned>(z - era * 146097);           // [0, 146096]
  const unsigned yoe = (doe - doe / 1460 + doe / 36524 - doe / 146096) / 365;
  const int64_t y = static_cast<int64_t>(yoe) + era * 400;
  const unsigned doy = doe - (365 * yoe + yoe / 4 - yoe / 100);           // [0, 365]
  const unsigned mp = (5 * doy + 2) / 153;                                // [0, 11]
  const unsigned d = doy - (153 * mp + 2) / 5 + 1;                        // [1, 31]
  const unsigned m = mp + (mp < 10 ? 3 : -9);                             // [1, 12]
  *year = static_cast<int32_t>(y + (m <= 2));
  *month = static_cast<int32_t>(m);
  *day = static_cast<int32_t>(d);
}

bool IsLeapYear(int32_t year) {
  return year % 4 == 0 && (year % 100 != 0 || year % 400 == 0);
}

int32_t DaysInMonth(int32_t year, int32_t month) {
  static constexpr int32_t kDays[] = {31, 28, 31, 30, 31, 30, 31, 31, 30, 31, 30, 31};
  if (month == 2 && IsLeapYear(year)) return 29;
  return kDays[month - 1];
}

CivilDateTime ToCivil(TimePoint tp) {
  CivilDateTime c;
  const int64_t micros = tp.micros();
  const int64_t days = FloorDiv(micros, kMicrosPerDay);
  int64_t rem = FloorMod(micros, kMicrosPerDay);
  CivilFromDays(days, &c.year, &c.month, &c.day);
  c.hour = static_cast<int32_t>(rem / kMicrosPerHour);
  rem %= kMicrosPerHour;
  c.minute = static_cast<int32_t>(rem / kMicrosPerMinute);
  rem %= kMicrosPerMinute;
  c.second = static_cast<int32_t>(rem / kMicrosPerSecond);
  c.micro = static_cast<int32_t>(rem % kMicrosPerSecond);
  return c;
}

TimePoint FromCivil(const CivilDateTime& c) {
  const int64_t days = DaysFromCivil(c.year, c.month, c.day);
  int64_t micros = days * kMicrosPerDay;
  micros += c.hour * kMicrosPerHour;
  micros += c.minute * kMicrosPerMinute;
  micros += c.second * kMicrosPerSecond;
  micros += c.micro;
  return TimePoint::FromMicros(micros);
}

TimePoint AddMonths(TimePoint tp, int64_t months) {
  CivilDateTime c = ToCivil(tp);
  int64_t linear = static_cast<int64_t>(c.year) * 12 + (c.month - 1) + months;
  c.year = static_cast<int32_t>(FloorDiv(linear, 12));
  c.month = static_cast<int32_t>(FloorMod(linear, 12)) + 1;
  const int32_t dim = DaysInMonth(c.year, c.month);
  if (c.day > dim) c.day = dim;
  return FromCivil(c);
}

int64_t WholeMonthsBetween(TimePoint from, TimePoint to) {
  // Floor semantics: the largest k with AddMonths(from, k) <= to, valid for
  // either ordering of the operands. The civil-field estimate is off by at
  // most one month, so the adjustment loops run O(1) times.
  const CivilDateTime a = ToCivil(from);
  const CivilDateTime b = ToCivil(to);
  int64_t est = (static_cast<int64_t>(b.year) - a.year) * 12 + (b.month - a.month);
  while (AddMonths(from, est) > to) --est;
  while (AddMonths(from, est + 1) <= to) ++est;
  return est;
}

Result<TimePoint> ParseTimePoint(const std::string& text) {
  CivilDateTime c;
  int micro = 0;
  char frac[16] = {0};
  int n = std::sscanf(text.c_str(), "%d-%d-%d %d:%d:%d.%9s", &c.year, &c.month,
                      &c.day, &c.hour, &c.minute, &c.second, frac);
  if (n < 3) {
    return Status::InvalidArgument("cannot parse time point: '", text, "'");
  }
  if (n >= 7) {
    // Right-pad the fractional field to microseconds.
    char padded[7] = {'0', '0', '0', '0', '0', '0', 0};
    for (int i = 0; i < 6 && frac[i] != 0; ++i) padded[i] = frac[i];
    micro = std::atoi(padded);
  }
  if (c.month < 1 || c.month > 12) {
    return Status::InvalidArgument("month out of range in '", text, "'");
  }
  if (c.day < 1 || c.day > DaysInMonth(c.year, c.month)) {
    return Status::InvalidArgument("day out of range in '", text, "'");
  }
  if (c.hour < 0 || c.hour > 23 || c.minute < 0 || c.minute > 59 || c.second < 0 ||
      c.second > 59) {
    return Status::InvalidArgument("time of day out of range in '", text, "'");
  }
  c.micro = micro;
  return FromCivil(c);
}

void AppendTimePoint(TimePoint tp, std::string* out) {
  if (tp.IsMin()) {
    out->append("-inf");
    return;
  }
  if (tp.IsMax()) {
    out->append("+inf");
    return;
  }
  const CivilDateTime c = ToCivil(tp);
  char buf[40];  // an 11-character int32 year plus 22 fixed characters
  char* p = buf;
  if (c.year >= 0 && c.year <= 9999) {
    p = PutDigits(p, c.year, 4);
  } else if (c.year < 0 && c.year > -1000) {
    *p++ = '-';
    p = PutDigits(p, -c.year, 3);
  } else {  // five or more characters: no padding to add
    p = std::to_chars(p, buf + 11, c.year).ptr;
  }
  *p++ = '-';
  p = PutDigits(p, c.month, 2);
  *p++ = '-';
  p = PutDigits(p, c.day, 2);
  *p++ = ' ';
  p = PutDigits(p, c.hour, 2);
  *p++ = ':';
  p = PutDigits(p, c.minute, 2);
  *p++ = ':';
  p = PutDigits(p, c.second, 2);
  *p++ = '.';
  p = PutDigits(p, c.micro, 6);
  out->append(buf, p);
}

std::string FormatTimePoint(TimePoint tp) {
  std::string out;
  AppendTimePoint(tp, &out);
  return out;
}

}  // namespace tempspec
