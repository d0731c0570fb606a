#include "catalog/query_lang.h"

#include <gtest/gtest.h>

#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/span_store.h"
#include "testing.h"
#include "timex/calendar.h"

namespace tempspec {
namespace {

using testing::Civil;

class QueryLangTest : public ::testing::Test {
 protected:
  void SetUp() override {
    clock_ = std::make_shared<LogicalClock>(Civil(1992, 2, 3, 10, 0),
                                            Duration::Minutes(10));
    RelationOptions base;
    base.clock = clock_;
    TemporalRelation* rel =
        catalog_
            .CreateRelationFromDdl(
                "CREATE EVENT RELATION samples (sensor INT64 KEY, v DOUBLE) "
                "GRANULARITY 1s WITH DEGENERATE",
                base)
            .ValueOrDie();
    for (int i = 0; i < 12; ++i) {
      const TimePoint now = clock_->Peek();
      ids_.push_back(
          rel->InsertEvent(1, now, Tuple{int64_t{1}, 1.0 * i}).ValueOrDie());
    }
    rel->LogicalDelete(ids_[0]).Check();
  }

  Catalog catalog_;
  std::shared_ptr<LogicalClock> clock_;
  std::vector<ElementSurrogate> ids_;
};

TEST_F(QueryLangTest, CurrentQuery) {
  ASSERT_OK_AND_ASSIGN(QueryOutput out,
                       ExecuteQuery(catalog_, "CURRENT samples"));
  EXPECT_EQ(out.elements.size(), 11u);
  EXPECT_NE(out.ToString().find("11 element(s)"), std::string::npos);
}

// The whole reply of a planned read, pinned byte for byte (captured from
// the ostringstream renderer the append formatters replaced): plan line,
// one indented row per element, and the trailer.
TEST_F(QueryLangTest, ReplyRenderingIsPinned) {
  ASSERT_OK_AND_ASSIGN(
      QueryOutput out,
      ExecuteQuery(catalog_, "TIMESLICE samples AT '1992-02-03 10:20:00' "
                             "AS OF '1992-02-03 11:00:00'"));
  EXPECT_EQ(out.ToString(),
            "plan: bitemporal scan (valid at vt, believed at tt)\n"
            "  e#3 obj#1 tt=[1992-02-03 10:20:00.000000, +inf) "
            "vt=1992-02-03 10:20:00.000000 (1, 2)\n"
            "1 element(s), 1 examined\n");
  ASSERT_OK_AND_ASSIGN(QueryOutput rollback,
                       ExecuteQuery(catalog_, "ROLLBACK samples TO "
                                              "'1992-02-03 10:10:00'"));
  EXPECT_EQ(rollback.ToString(),
            "plan: existence-interval scan\n"
            "  e#1 obj#1 tt=[1992-02-03 10:00:00.000000, "
            "1992-02-03 12:00:00.000000) vt=1992-02-03 10:00:00.000000 (1, 0)\n"
            "  e#2 obj#1 tt=[1992-02-03 10:10:00.000000, +inf) "
            "vt=1992-02-03 10:10:00.000000 (1, 1)\n"
            "2 element(s), 12 examined\n");
}

TEST(QueryOutputTest, RendersPlanRowsTraceAndTrailer) {
  Element e;
  e.element_surrogate = 17;
  e.object_surrogate = 4;
  e.tt_begin = Civil(1992, 2, 3, 10, 30);
  e.tt_end = TimePoint::Max();
  e.valid = ValidTime::Event(Civil(1992, 2, 1));
  e.attributes = Tuple{int64_t{1}, 2.5};
  QueryOutput out;
  EXPECT_EQ(out.ToString(), "0 element(s), 0 examined\n");
  out.elements = {e, e};
  out.stats.elements_examined = 9;
  const std::string row =
      "  e#17 obj#4 tt=[1992-02-03 10:30:00.000000, +inf) "
      "vt=1992-02-01 00:00:00.000000 (1, 2.5)\n";
  EXPECT_EQ(out.ToString(), row + row + "2 element(s), 9 examined\n");
  out.plan_description = "full_scan [kernel generic_columnar] — no spec";
  EXPECT_EQ(out.ToString(),
            "plan: full_scan [kernel generic_columnar] — no spec\n" + row +
                row + "2 element(s), 9 examined\n");
  out.analyze = true;
  out.trace_json = "{\"name\":\"query\"}";
  EXPECT_EQ(out.ToString(),
            "plan: full_scan [kernel generic_columnar] — no spec\n"
            "trace: {\"name\":\"query\"}\n2 element(s), 9 examined\n");
  out.analyze = false;
  out.explain_only = true;
  EXPECT_EQ(out.ToString(),
            "plan: full_scan [kernel generic_columnar] — no spec\n");
  out.report = "report\n";
  EXPECT_EQ(out.ToString(), "report\n");
}

TEST_F(QueryLangTest, TimesliceUsesDegenerateStrategy) {
  // Third sample: valid (and stored) at 10:20.
  ASSERT_OK_AND_ASSIGN(
      QueryOutput out,
      ExecuteQuery(catalog_, "TIMESLICE samples AT '1992-02-03 10:20:00'"));
  EXPECT_EQ(out.elements.size(), 1u);
  EXPECT_NE(out.plan_description.find("rollback equivalence"), std::string::npos);
  EXPECT_LE(out.stats.elements_examined, 2u);
}

TEST_F(QueryLangTest, RollbackQuery) {
  // As stored at 10:20 (three inserts, no deletes yet — the delete happens
  // at the 13th stamp).
  ASSERT_OK_AND_ASSIGN(
      QueryOutput out,
      ExecuteQuery(catalog_, "ROLLBACK samples TO '1992-02-03 10:20:00'"));
  EXPECT_EQ(out.elements.size(), 3u);
}

TEST_F(QueryLangTest, RangeQuery) {
  ASSERT_OK_AND_ASSIGN(QueryOutput out,
                       ExecuteQuery(catalog_,
                                    "RANGE samples FROM '1992-02-03 10:00:00' "
                                    "TO '1992-02-03 10:30:00'"));
  // Samples at 10:00 (deleted), 10:10, 10:20 — current ones only.
  EXPECT_EQ(out.elements.size(), 2u);
  EXPECT_FALSE(ExecuteQuery(catalog_,
                            "RANGE samples FROM '1992-02-03 11:00:00' TO "
                            "'1992-02-03 10:00:00'")
                   .ok());
}

TEST_F(QueryLangTest, BitemporalAsOf) {
  // The 10:00 sample was believed until its deletion (13th stamp, 12:00).
  ASSERT_OK_AND_ASSIGN(
      QueryOutput then,
      ExecuteQuery(catalog_, "TIMESLICE samples AT '1992-02-03 10:00:00' AS OF "
                             "'1992-02-03 10:05:00'"));
  EXPECT_EQ(then.elements.size(), 1u);
  ASSERT_OK_AND_ASSIGN(
      QueryOutput now,
      ExecuteQuery(catalog_, "TIMESLICE samples AT '1992-02-03 10:00:00' AS OF "
                             "'1992-02-03 23:00:00'"));
  EXPECT_EQ(now.elements.size(), 0u);
}

TEST_F(QueryLangTest, ExplainOnly) {
  ASSERT_OK_AND_ASSIGN(
      QueryOutput out,
      ExecuteQuery(catalog_,
                   "EXPLAIN TIMESLICE samples AT '1992-02-03 10:20:00'"));
  EXPECT_TRUE(out.explain_only);
  EXPECT_TRUE(out.elements.empty());
  EXPECT_NE(out.plan_description.find("degenerate"), std::string::npos);
}

TEST_F(QueryLangTest, ShowSlowQueries) {
  SpanStore& log = SpanStore::Instance();
  log.Clear();
  log.SetThresholdMicros(0);  // record every executed statement
  ASSERT_OK(ExecuteQuery(catalog_, "CURRENT samples").status());
  ASSERT_OK(ExecuteQuery(catalog_, "CURRENT samples").status());
  ASSERT_OK_AND_ASSIGN(QueryOutput out,
                       ExecuteQuery(catalog_, "SHOW SLOW QUERIES"));
  EXPECT_NE(out.report.find("threshold 0us"), std::string::npos);
  EXPECT_EQ(out.ToString(), out.report);  // SHOW renders the report verbatim
  // Executed statements carry trace spans, so both CURRENTs were retained
  // (the SHOW itself executes no query and is never logged).
  EXPECT_NE(out.report.find("2 slow queries shown"), std::string::npos);
  EXPECT_NE(out.report.find("\"statement\":\"CURRENT samples\""),
            std::string::npos);
  ASSERT_OK_AND_ASSIGN(QueryOutput limited,
                       ExecuteQuery(catalog_, "SHOW SLOW QUERIES LIMIT 1"));
  EXPECT_NE(limited.report.find("1 slow query shown (2 recorded"),
            std::string::npos);
  log.Clear();
  log.SetThresholdMicros(10000);
}

TEST_F(QueryLangTest, ShowSpecialization) {
  ASSERT_OK_AND_ASSIGN(QueryOutput out,
                       ExecuteQuery(catalog_, "SHOW SPECIALIZATION samples"));
  EXPECT_NE(out.report.find("relation samples"), std::string::npos);
  EXPECT_NE(out.report.find("declared: degenerate"), std::string::npos);
  EXPECT_NE(out.report.find("figure-1 occupancy"), std::string::npos);
  // Every fixture insert was degenerate (vt = clock now), so the monitor
  // saw them all and the relation conforms.
  EXPECT_NE(out.report.find("conforming"), std::string::npos);
}

TEST_F(QueryLangTest, ShowFlightRecorder) {
  // A planned query records a plan-choice flight event.
  ASSERT_OK(
      ExecuteQuery(catalog_, "TIMESLICE samples AT '1992-02-03 10:20:00'")
          .status());
  ASSERT_OK_AND_ASSIGN(QueryOutput out,
                       ExecuteQuery(catalog_, "SHOW FLIGHT RECORDER"));
  EXPECT_EQ(out.ToString(), out.report);
  EXPECT_NE(out.report.find("event(s) shown ("), std::string::npos);
  EXPECT_NE(out.report.find("ring capacity"), std::string::npos);
  EXPECT_NE(out.report.find("\"code\":\"plan.choice\""), std::string::npos);
  ASSERT_OK_AND_ASSIGN(QueryOutput limited,
                       ExecuteQuery(catalog_, "SHOW FLIGHT RECORDER LIMIT 1"));
  EXPECT_NE(limited.report.find("1 event(s) shown ("), std::string::npos);
}

TEST_F(QueryLangTest, ShowTraces) {
  ASSERT_OK(ExecuteQuery(catalog_, "CURRENT samples").status());
  ASSERT_OK_AND_ASSIGN(QueryOutput out, ExecuteQuery(catalog_, "SHOW TRACES"));
  EXPECT_EQ(out.ToString(), out.report);
  EXPECT_NE(out.report.find("trace(s) shown ("), std::string::npos);
  EXPECT_NE(out.report.find("sampling 1/"), std::string::npos);
  // Every executed statement carries a span, so the CURRENT above was
  // offered to the retained ring (default sampling 1).
  EXPECT_NE(out.report.find("\"span\":\"query."), std::string::npos);
  ASSERT_OK_AND_ASSIGN(QueryOutput limited,
                       ExecuteQuery(catalog_, "SHOW TRACES LIMIT 1"));
  EXPECT_NE(limited.report.find("1 trace(s) shown ("), std::string::npos);
}

TEST_F(QueryLangTest, ShowErrors) {
  EXPECT_FALSE(ExecuteQuery(catalog_, "SHOW").ok());
  EXPECT_FALSE(ExecuteQuery(catalog_, "SHOW NOTHING").ok());
  EXPECT_FALSE(ExecuteQuery(catalog_, "SHOW SLOW").ok());
  EXPECT_FALSE(ExecuteQuery(catalog_, "SHOW SLOW QUERIES LIMIT x").ok());
  EXPECT_FALSE(ExecuteQuery(catalog_, "SHOW SPECIALIZATION nope").ok());
  EXPECT_FALSE(
      ExecuteQuery(catalog_, "SHOW SPECIALIZATION samples extra").ok());
  EXPECT_FALSE(ExecuteQuery(catalog_, "SHOW FLIGHT").ok());
  const Status unknown = ExecuteQuery(catalog_, "SHOW NOTHING").status();
  EXPECT_NE(unknown.message().find("TRACES, HEALTH, or HISTORY"),
            std::string::npos)
      << unknown.message();
}

TEST_F(QueryLangTest, Errors) {
  EXPECT_FALSE(ExecuteQuery(catalog_, "CURRENT nope").ok());
  EXPECT_FALSE(ExecuteQuery(catalog_, "FROBNICATE samples").ok());
  EXPECT_FALSE(ExecuteQuery(catalog_, "TIMESLICE samples AT bare").ok());
  EXPECT_FALSE(ExecuteQuery(catalog_, "TIMESLICE samples AT '1992-13-99'").ok());
  EXPECT_FALSE(
      ExecuteQuery(catalog_, "CURRENT samples trailing garbage").ok());
}

TEST_F(QueryLangTest, InsertEventStatement) {
  // `samples` is degenerate: valid time must match the stamping time, which
  // after SetUp's 13 stamps (12 inserts + 1 delete) is deterministically
  // 12:10.
  ASSERT_OK_AND_ASSIGN(
      QueryOutput out,
      ExecuteQuery(catalog_,
                   "INSERT INTO samples OBJECT 9 VALUES (9, 42.5) "
                   "VALID AT '1992-02-03 12:10:00'"));
  EXPECT_NE(out.report.find("inserted element"), std::string::npos)
      << out.report;
  EXPECT_NE(out.report.find("(object 9) into samples"), std::string::npos);
  // The insert is immediately visible to reads.
  ASSERT_OK_AND_ASSIGN(QueryOutput current,
                       ExecuteQuery(catalog_, "CURRENT samples"));
  EXPECT_EQ(current.elements.size(), 12u);  // 11 from SetUp + this one
}

TEST_F(QueryLangTest, InsertValueTypesRoundTrip) {
  RelationOptions base;
  base.clock = clock_;
  ASSERT_OK(catalog_
                .CreateRelationFromDdl(
                    "CREATE EVENT RELATION typed (id INT64 KEY, label STRING, "
                    "ok BOOL, score DOUBLE) GRANULARITY 1s",
                    base)
                .status());
  ASSERT_OK(ExecuteQuery(catalog_,
                         "INSERT INTO typed OBJECT 1 VALUES "
                         "(7, 'seven', TRUE, -1.5e2) "
                         "VALID AT '1992-02-03 13:00:00'")
                .status());
  ASSERT_OK(ExecuteQuery(catalog_,
                         "INSERT INTO typed OBJECT 2 VALUES "
                         "(8, NULL, FALSE, 0.25) "
                         "VALID AT '1992-02-03 13:00:00'")
                .status());
  ASSERT_OK_AND_ASSIGN(QueryOutput out,
                       ExecuteQuery(catalog_, "CURRENT typed"));
  EXPECT_EQ(out.elements.size(), 2u);
}

TEST_F(QueryLangTest, DeleteStatement) {
  ASSERT_OK_AND_ASSIGN(
      QueryOutput out,
      ExecuteQuery(catalog_,
                   "DELETE FROM samples WHERE ID " + std::to_string(ids_[1])));
  EXPECT_NE(out.report.find("deleted element"), std::string::npos)
      << out.report;
  ASSERT_OK_AND_ASSIGN(QueryOutput current,
                       ExecuteQuery(catalog_, "CURRENT samples"));
  EXPECT_EQ(current.elements.size(), 10u);  // SetUp left 11
  // Deleting an unknown element fails cleanly.
  EXPECT_FALSE(
      ExecuteQuery(catalog_, "DELETE FROM samples WHERE ID 999999").ok());
}

TEST_F(QueryLangTest, WriteStatementErrors) {
  // Wrong arity, type mismatches, bad time literals, unknown relations.
  EXPECT_FALSE(ExecuteQuery(catalog_,
                            "INSERT INTO nope OBJECT 1 VALUES (1, 1.0) "
                            "VALID AT '1992-02-03 13:00:00'")
                   .ok());
  EXPECT_FALSE(ExecuteQuery(catalog_,
                            "INSERT INTO samples OBJECT 1 VALUES (1) "
                            "VALID AT '1992-02-03 13:00:00'")
                   .ok());
  EXPECT_FALSE(ExecuteQuery(catalog_,
                            "INSERT INTO samples OBJECT 1 VALUES (1, 'x') "
                            "VALID AT '1992-02-03 13:00:00'")
                   .ok());
  EXPECT_FALSE(ExecuteQuery(catalog_,
                            "INSERT INTO samples OBJECT 1 VALUES (1, 1.0) "
                            "VALID AT 'not a time'")
                   .ok());
  EXPECT_FALSE(ExecuteQuery(catalog_,
                            "INSERT INTO samples OBJECT 1 VALUES (1, 1.0)")
                   .ok());
  EXPECT_FALSE(ExecuteQuery(catalog_, "DELETE FROM samples WHERE ID x").ok());
  EXPECT_FALSE(ExecuteQuery(catalog_, "DELETE FROM samples").ok());
  // EXPLAIN applies to queries, not writes.
  EXPECT_FALSE(ExecuteQuery(catalog_,
                            "EXPLAIN INSERT INTO samples OBJECT 1 VALUES "
                            "(1, 1.0) VALID AT '1992-02-03 13:00:00'")
                   .ok());
}

TEST_F(QueryLangTest, IsWriteStatementClassification) {
  EXPECT_TRUE(IsWriteStatement("INSERT INTO r OBJECT 1 VALUES (1)"));
  EXPECT_TRUE(IsWriteStatement("  insert into r ..."));
  EXPECT_TRUE(IsWriteStatement("DELETE FROM r WHERE ID 4"));
  EXPECT_TRUE(IsWriteStatement("CREATE EVENT RELATION r (x INT64 KEY)"));
  EXPECT_TRUE(IsWriteStatement("DROP RELATION r"));
  EXPECT_FALSE(IsWriteStatement("CURRENT r"));
  EXPECT_FALSE(IsWriteStatement("TIMESLICE r AT '1992-01-01'"));
  EXPECT_FALSE(IsWriteStatement("SHOW SPECIALIZATION r"));
  EXPECT_FALSE(IsWriteStatement("EXPLAIN CURRENT r"));
  EXPECT_FALSE(IsWriteStatement(""));
  EXPECT_FALSE(IsWriteStatement("   "));
}

}  // namespace
}  // namespace tempspec
