#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <limits>
#include <random>
#include <sstream>

#include "model/element.h"
#include "model/schema.h"
#include "model/tuple.h"
#include "model/value.h"
#include "testing.h"
#include "timex/calendar.h"

namespace tempspec {
namespace {

using testing::T;

TEST(ValueTest, TypesAndAccessors) {
  EXPECT_EQ(Value::Null().type(), ValueType::kNull);
  EXPECT_TRUE(Value::Null().is_null());
  EXPECT_EQ(Value(true).AsBool(), true);
  EXPECT_EQ(Value(int64_t{42}).AsInt64(), 42);
  EXPECT_EQ(Value(7).AsInt64(), 7);  // int promotes to int64
  EXPECT_DOUBLE_EQ(Value(2.5).AsDouble(), 2.5);
  EXPECT_EQ(Value("abc").AsString(), "abc");
  EXPECT_EQ(Value(T(9)).AsTime(), T(9));
}

TEST(ValueTest, EqualityAndOrdering) {
  EXPECT_EQ(Value(1), Value(1));
  EXPECT_NE(Value(1), Value(2));
  EXPECT_NE(Value(1), Value(1.0));  // different types
  EXPECT_LT(Value(1), Value(2));
  EXPECT_LT(Value("a"), Value("b"));
}

TEST(ValueTest, ToString) {
  EXPECT_EQ(Value(42).ToString(), "42");
  EXPECT_EQ(Value("x").ToString(), "'x'");
  EXPECT_EQ(Value(true).ToString(), "true");
  EXPECT_EQ(Value::Null().ToString(), "null");
}

// Golden strings of the reply row format. They were captured from the
// snprintf / ostringstream renderer that the append formatters replaced,
// and replies must stay byte-identical to them: clients and the simulator
// parse these rows, and the end-to-end benchmark compares replies only
// with the same tree's own rendering.
TimePoint At(int32_t y, int32_t mo, int32_t d, int32_t h = 0, int32_t mi = 0,
             int32_t s = 0, int32_t us = 0) {
  return FromCivil(CivilDateTime{y, mo, d, h, mi, s, us});
}

TEST(RenderGoldenTest, TimePoints) {
  EXPECT_EQ(FormatTimePoint(TimePoint::FromMicros(0)),
            "1970-01-01 00:00:00.000000");
  EXPECT_EQ(FormatTimePoint(TimePoint::FromMicros(-1)),
            "1969-12-31 23:59:59.999999");
  EXPECT_EQ(FormatTimePoint(TimePoint::Min()), "-inf");
  EXPECT_EQ(FormatTimePoint(TimePoint::Max()), "+inf");
  EXPECT_EQ(FormatTimePoint(TimePoint::FromMicros(TimePoint::Min().micros() + 1)),
            "-290308-12-21 19:59:05.224193");
  EXPECT_EQ(FormatTimePoint(TimePoint::FromMicros(TimePoint::Max().micros() - 1)),
            "294247-01-10 04:00:54.775806");
  EXPECT_EQ(FormatTimePoint(At(1992, 2, 3, 10, 30, 5, 123456)),
            "1992-02-03 10:30:05.123456");
  EXPECT_EQ(FormatTimePoint(At(1992, 2, 3, 4, 5, 6, 7)),
            "1992-02-03 04:05:06.000007");
  // Years below 1000 and negative years pad to four characters, the sign
  // included; years past 9999 just grow.
  EXPECT_EQ(FormatTimePoint(At(987, 6, 15, 12)), "0987-06-15 12:00:00.000000");
  EXPECT_EQ(FormatTimePoint(At(5, 1, 2)), "0005-01-02 00:00:00.000000");
  EXPECT_EQ(FormatTimePoint(At(0, 3, 1)), "0000-03-01 00:00:00.000000");
  EXPECT_EQ(FormatTimePoint(At(-5, 7, 4, 1, 2, 3, 4)),
            "-005-07-04 01:02:03.000004");
  EXPECT_EQ(FormatTimePoint(At(-44, 3, 15)), "-044-03-15 00:00:00.000000");
  EXPECT_EQ(FormatTimePoint(At(-1234, 12, 31, 23, 59, 59, 999999)),
            "-1234-12-31 23:59:59.999999");
  EXPECT_EQ(FormatTimePoint(At(12345, 1, 1)), "12345-01-01 00:00:00.000000");
  EXPECT_EQ(At(1992, 2, 3, 10, 30).ToString(), "1992-02-03 10:30:00.000000");

  std::string appended = "at ";
  AppendTimePoint(At(1992, 2, 3, 10, 30), &appended);
  AppendTimePoint(TimePoint::Max(), &appended);
  EXPECT_EQ(appended, "at 1992-02-03 10:30:00.000000+inf");
}

TEST(RenderGoldenTest, Values) {
  EXPECT_EQ(Value::Null().ToString(), "null");
  EXPECT_EQ(Value(true).ToString(), "true");
  EXPECT_EQ(Value(false).ToString(), "false");
  EXPECT_EQ(Value(-7).ToString(), "-7");
  EXPECT_EQ(Value(std::numeric_limits<int64_t>::min()).ToString(),
            "-9223372036854775808");
  EXPECT_EQ(Value(std::numeric_limits<int64_t>::max()).ToString(),
            "9223372036854775807");
  // Doubles print as a default-formatted ostream prints them: %g with six
  // significant digits.
  EXPECT_EQ(Value(0.0).ToString(), "0");
  EXPECT_EQ(Value(-0.0).ToString(), "-0");
  EXPECT_EQ(Value(1e-05).ToString(), "1e-05");
  EXPECT_EQ(Value(0.0001).ToString(), "0.0001");
  EXPECT_EQ(Value(0.1).ToString(), "0.1");
  EXPECT_EQ(Value(2.5).ToString(), "2.5");
  EXPECT_EQ(Value(123456.0).ToString(), "123456");
  EXPECT_EQ(Value(1234567.0).ToString(), "1.23457e+06");
  EXPECT_EQ(Value(-55000.25).ToString(), "-55000.2");
  EXPECT_EQ(Value(1e21).ToString(), "1e+21");
  EXPECT_EQ(Value(std::numeric_limits<double>::infinity()).ToString(), "inf");
  EXPECT_EQ(Value(-std::numeric_limits<double>::infinity()).ToString(), "-inf");
  EXPECT_EQ(Value(std::numeric_limits<double>::quiet_NaN()).ToString(), "nan");
  // Strings are quoted verbatim, with no escaping.
  EXPECT_EQ(Value("").ToString(), "''");
  EXPECT_EQ(Value("it's").ToString(), "'it's'");
  EXPECT_EQ(Value(At(1990, 6, 1)).ToString(), "1990-06-01 00:00:00.000000");

  std::string appended = "v=";
  Value(1234567.0).AppendTo(&appended);
  Value("s").AppendTo(&appended);
  EXPECT_EQ(appended, "v=1.23457e+06's'");
}

TEST(RenderGoldenTest, StampsTuplesAndElements) {
  EXPECT_EQ(ValidTime::Event(At(1992, 2, 3, 10, 30)).ToString(),
            "1992-02-03 10:30:00.000000");
  EXPECT_EQ(ValidTime::IntervalUnchecked(At(1992, 1, 1), TimePoint::Max())
                .ToString(),
            "[1992-01-01 00:00:00.000000, +inf)");
  EXPECT_EQ(ValidTime::IntervalUnchecked(TimePoint::Min(), At(-5, 7, 4))
                .ToString(),
            "[-inf, -005-07-04 00:00:00.000000)");
  EXPECT_EQ(Tuple().ToString(), "()");
  const Tuple t{int64_t{123456789}, "unknown", 55000.0, Value::Null(), true,
                At(1990, 6, 1)};
  EXPECT_EQ(t.ToString(),
            "(123456789, 'unknown', 55000, null, true, "
            "1990-06-01 00:00:00.000000)");

  Element interval;
  interval.element_surrogate = 17;
  interval.object_surrogate = 4;
  interval.tt_begin = At(1992, 2, 3, 10, 30, 0, 250);
  interval.tt_end = TimePoint::Max();
  interval.valid = ValidTime::IntervalUnchecked(At(987, 6, 15), At(12345, 1, 1));
  interval.attributes = t;
  EXPECT_EQ(interval.ToString(),
            "e#17 obj#4 tt=[1992-02-03 10:30:00.000250, +inf) "
            "vt=[0987-06-15 00:00:00.000000, 12345-01-01 00:00:00.000000) "
            "(123456789, 'unknown', 55000, null, true, "
            "1990-06-01 00:00:00.000000)");

  Element event;
  event.element_surrogate = std::numeric_limits<uint64_t>::max();
  event.object_surrogate = 0;
  event.tt_begin = TimePoint::Min();
  event.tt_end = At(1970, 1, 1, 0, 0, 0, 1);
  event.valid = ValidTime::Event(At(-44, 3, 15, 12));
  event.attributes = Tuple{1e-05, 1234567.0, -0.0, Value::Null(), false, "s"};
  EXPECT_EQ(event.ToString(),
            "e#18446744073709551615 obj#0 tt=[-inf, 1970-01-01 00:00:00.000001) "
            "vt=-044-03-15 12:00:00.000000 "
            "(1e-05, 1.23457e+06, -0, null, false, 's')");

  // AppendTo appends to what the caller's buffer already holds.
  std::string row = "  ";
  event.AppendTo(&row);
  EXPECT_EQ(row, "  " + event.ToString());
}

// The formatters against the library calls they replaced, over random
// inputs: every double bit pattern class (NaN payloads and signs,
// infinities, subnormals) and time points across the whole int64 range.
TEST(RenderGoldenTest, DoublesMatchDefaultOstreamFormatting) {
  std::mt19937_64 rng(20260417);
  for (int i = 0; i < 50000; ++i) {
    const uint64_t bits = rng();
    double d;
    std::memcpy(&d, &bits, sizeof(d));
    std::ostringstream expected;
    expected << d;
    ASSERT_EQ(Value(d).ToString(), expected.str()) << "bits 0x" << std::hex
                                                   << bits;
  }
}

TEST(RenderGoldenTest, TimePointsMatchPrintfFormatting) {
  std::mt19937_64 rng(20260417);
  for (int i = 0; i < 50000; ++i) {
    // Alternate the full int64 range with +-12,000 years around the epoch.
    const int64_t micros =
        i % 2 == 0 ? static_cast<int64_t>(rng())
                   : static_cast<int64_t>(rng() % 757382400000000000ull) -
                         378691200000000000;
    const TimePoint tp = TimePoint::FromMicros(micros);
    if (tp.IsMin() || tp.IsMax()) continue;
    const CivilDateTime c = ToCivil(tp);
    char expected[48];
    std::snprintf(expected, sizeof(expected),
                  "%04d-%02d-%02d %02d:%02d:%02d.%06d", c.year, c.month, c.day,
                  c.hour, c.minute, c.second, c.micro);
    ASSERT_EQ(FormatTimePoint(tp), expected) << "micros " << micros;
  }
}

SchemaPtr TestSchema() {
  return Schema::Make(
             "employees",
             {AttributeDef{"ssn", ValueType::kInt64,
                           AttributeRole::kTimeInvariantKey},
              AttributeDef{"race", ValueType::kString,
                           AttributeRole::kTimeInvariant},
              AttributeDef{"salary", ValueType::kDouble,
                           AttributeRole::kTimeVarying},
              AttributeDef{"hired_on", ValueType::kTime,
                           AttributeRole::kUserDefinedTime}},
             ValidTimeKind::kInterval, Granularity::Day())
      .ValueOrDie();
}

TEST(SchemaTest, RolesAndLookup) {
  SchemaPtr s = TestSchema();
  EXPECT_EQ(s->num_attributes(), 4u);
  EXPECT_TRUE(s->IsIntervalRelation());
  ASSERT_OK_AND_ASSIGN(size_t idx, s->IndexOf("salary"));
  EXPECT_EQ(idx, 2u);
  EXPECT_FALSE(s->IndexOf("nope").ok());
  EXPECT_EQ(s->IndicesWithRole(AttributeRole::kTimeInvariantKey),
            std::vector<size_t>{0});
  EXPECT_EQ(s->IndicesWithRole(AttributeRole::kUserDefinedTime),
            std::vector<size_t>{3});
  EXPECT_EQ(s->valid_granularity(), Granularity::Day());
}

TEST(SchemaTest, RejectsBadDefinitions) {
  EXPECT_FALSE(Schema::Make("", {}, ValidTimeKind::kEvent).ok());
  EXPECT_FALSE(Schema::Make("r",
                            {AttributeDef{"a", ValueType::kInt64},
                             AttributeDef{"a", ValueType::kInt64}},
                            ValidTimeKind::kEvent)
                   .ok());
  EXPECT_FALSE(
      Schema::Make("r", {AttributeDef{"", ValueType::kInt64}}, ValidTimeKind::kEvent)
          .ok());
  // User-defined times must be TIME-typed (Section 2).
  EXPECT_FALSE(Schema::Make("r",
                            {AttributeDef{"t", ValueType::kInt64,
                                          AttributeRole::kUserDefinedTime}},
                            ValidTimeKind::kEvent)
                   .ok());
}

TEST(TupleTest, ConformanceChecksTypesAndArity) {
  SchemaPtr s = TestSchema();
  Tuple good{int64_t{123456789}, "unknown", 55000.0, testing::Civil(1990, 6, 1)};
  EXPECT_OK(good.Conforms(*s));

  Tuple with_null{int64_t{1}, Value::Null(), 1.0, Value::Null()};
  EXPECT_OK(with_null.Conforms(*s));

  Tuple wrong_type{int64_t{1}, "x", "not a double", testing::Civil(1990, 6, 1)};
  EXPECT_NOT_OK(wrong_type.Conforms(*s));

  Tuple too_short{int64_t{1}};
  EXPECT_NOT_OK(too_short.Conforms(*s));
}

TEST(TupleTest, GetByName) {
  SchemaPtr s = TestSchema();
  Tuple t{int64_t{9}, "x", 100.0, testing::Civil(1990, 6, 1)};
  ASSERT_OK_AND_ASSIGN(Value v, t.Get(*s, "salary"));
  EXPECT_DOUBLE_EQ(v.AsDouble(), 100.0);
  EXPECT_FALSE(t.Get(*s, "bogus").ok());
}

TEST(ValidTimeTest, EventSemantics) {
  const ValidTime v = ValidTime::Event(T(10));
  EXPECT_TRUE(v.is_event());
  EXPECT_EQ(v.at(), T(10));
  EXPECT_TRUE(v.ValidAt(T(10)));
  EXPECT_FALSE(v.ValidAt(T(11)));
}

TEST(ValidTimeTest, IntervalSemantics) {
  ASSERT_OK_AND_ASSIGN(ValidTime v, ValidTime::Interval(T(10), T(20)));
  EXPECT_TRUE(v.is_interval());
  EXPECT_TRUE(v.ValidAt(T(10)));
  EXPECT_TRUE(v.ValidAt(T(19)));
  EXPECT_FALSE(v.ValidAt(T(20)));
  EXPECT_FALSE(ValidTime::Interval(T(20), T(10)).ok());
}

TEST(ElementTest, ExistenceInterval) {
  Element e = testing::MakeEventElement(T(100), T(90));
  EXPECT_TRUE(e.IsCurrent());
  EXPECT_TRUE(e.ExistsAt(T(100)));
  EXPECT_TRUE(e.ExistsAt(T(1000000)));
  EXPECT_FALSE(e.ExistsAt(T(99)));
  e.tt_end = T(200);
  EXPECT_FALSE(e.IsCurrent());
  EXPECT_TRUE(e.ExistsAt(T(199)));
  EXPECT_FALSE(e.ExistsAt(T(200)));  // half-open existence interval
}

TEST(SurrogateGeneratorTest, MonotoneAndRecoverable) {
  SurrogateGenerator gen;
  const uint64_t a = gen.Next();
  const uint64_t b = gen.Next();
  EXPECT_LT(a, b);
  EXPECT_NE(a, kInvalidElementSurrogate);
  gen.EnsureAbove(1000);
  EXPECT_GT(gen.Next(), 1000u);
  // Zero start is corrected away from the invalid surrogate.
  SurrogateGenerator zero(0);
  EXPECT_NE(zero.Next(), kInvalidElementSurrogate);
}

}  // namespace
}  // namespace tempspec
