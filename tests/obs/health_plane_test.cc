// Health plane: the metrics history ring (obs/history.h), the SLO watchdog
// (obs/slo.h), and their SHOW HEALTH / SHOW HISTORY query-language surface.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <sstream>
#include <string>
#include <thread>

#include "catalog/query_lang.h"
#include "obs/history.h"
#include "obs/metrics.h"
#include "obs/slo.h"
#include "testing.h"
#include "testing_json.h"

namespace tempspec {
namespace {

using testing::JsonParser;

bool WaitFor(const std::function<bool()>& pred,
             std::chrono::milliseconds limit = std::chrono::seconds(10)) {
  const auto give_up = std::chrono::steady_clock::now() + limit;
  while (!pred()) {
    if (std::chrono::steady_clock::now() > give_up) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return true;
}

// -- MetricsHistory ----------------------------------------------------------

TEST(MetricsHistoryTest, SampleOnceAppendsATimestampedDigest) {
  MetricsHistory history(/*capacity=*/4);
  history.SampleOnce();
  ASSERT_EQ(history.Entries().size(), 1u);
  EXPECT_EQ(history.TotalSamples(), 1u);
  EXPECT_GT(history.Entries()[0].unix_micros, 0u);
  TS_COUNTER_INC("history_test.pinged");
  history.SampleOnce();
  // Entries() returns the ring by value; copy the element before the
  // temporary vector dies.
  const HistorySample sample = history.Entries().back();
  const auto it = sample.metrics.counters.find("history_test.pinged");
  ASSERT_NE(it, sample.metrics.counters.end());
  EXPECT_GE(it->second, 1u);
}

TEST(MetricsHistoryTest, SampleLineFormatIsPinned) {
  // /metrics/history and SHOW HISTORY print this line: the scrape's own JSON
  // with the sample time as its first key.
  HistorySample sample;
  sample.unix_micros = 5;
  sample.metrics.counters["a"] = 1;
  sample.metrics.gauges["g"] = -2;
  HistogramSnapshot h;
  h.count = 2;
  h.sum = 3;
  h.buckets = {{1, 1}, {2, 1}};
  sample.metrics.histograms["h"] = h;
  EXPECT_EQ(sample.ToJson(),
            "{\"unix_micros\":5,\"counters\":{\"a\":1},\"gauges\":{\"g\":-2},"
            "\"histograms\":{\"h\":{\"count\":2,\"sum\":3,\"p50\":1,"
            "\"p99\":3}}}");
}

TEST(MetricsHistoryTest, RingEvictsOldestAndCountsTotals) {
  MetricsHistory history(/*capacity=*/3);
  for (int i = 0; i < 5; ++i) history.SampleOnce();
  EXPECT_EQ(history.Entries().size(), 3u);
  EXPECT_EQ(history.TotalSamples(), 5u);
  history.SetCapacity(1);
  EXPECT_EQ(history.Entries().size(), 1u);
}

TEST(MetricsHistoryTest, RenderJsonlEmitsValidLinesNewestLimited) {
  MetricsHistory history(/*capacity=*/8);
  for (int i = 0; i < 4; ++i) history.SampleOnce();
  std::istringstream all(history.RenderJsonl(0));
  std::string line;
  size_t lines = 0;
  while (std::getline(all, line)) {
    ASSERT_OK_AND_ASSIGN(testing::JsonValue v, JsonParser::Parse(line));
    EXPECT_TRUE(v.has("unix_micros")) << line;
    EXPECT_TRUE(v.has("counters")) << line;
    EXPECT_TRUE(v.has("histograms")) << line;
    ++lines;
  }
  EXPECT_EQ(lines, 4u);

  std::istringstream limited(history.RenderJsonl(2));
  lines = 0;
  while (std::getline(limited, line)) ++lines;
  EXPECT_EQ(lines, 2u);
}

TEST(MetricsHistoryTest, SamplerThreadFeedsRingAndHook) {
  MetricsHistory history(/*capacity=*/64);
  std::atomic<int> hook_calls{0};
  history.Start(/*interval_ms=*/2, [&hook_calls] { ++hook_calls; });
  EXPECT_TRUE(history.running());
  EXPECT_EQ(history.interval_ms(), 2u);
  // A second Start while running is a no-op rather than a second thread.
  history.Start(1000);
  EXPECT_EQ(history.interval_ms(), 2u);
  EXPECT_TRUE(WaitFor([&] { return history.TotalSamples() >= 3; }));
  EXPECT_TRUE(WaitFor([&] { return hook_calls.load() >= 3; }));
  history.Stop();
  EXPECT_FALSE(history.running());
  history.Stop();  // idempotent
}

TEST(MetricsHistoryTest, StartWithZeroIntervalIsDisabled) {
  MetricsHistory history;
  history.Start(0);
  EXPECT_FALSE(history.running());
}

TEST(MetricsHistoryTest, ClearResetsRingAndTotals) {
  MetricsHistory history(/*capacity=*/4);
  history.SampleOnce();
  history.Clear();
  EXPECT_TRUE(history.Entries().empty());
  EXPECT_EQ(history.TotalSamples(), 0u);
  EXPECT_EQ(history.RenderJsonl(0), "");
}

// -- SloRegistry -------------------------------------------------------------

class SloRegistryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    SloRegistry::Instance().Clear();
    QueryLatencyFamily::Instance().Reset();
  }
  void TearDown() override {
    SloRegistry::Instance().Clear();
    QueryLatencyFamily::Instance().Reset();
  }
};

TEST_F(SloRegistryTest, DeclareFromSpecParsesEntriesAndFlagsBadOnes) {
  EXPECT_TRUE(SloRegistry::Instance().DeclareFromSpec("ledger=12.5,orders=40"));
  const auto objectives = SloRegistry::Instance().Objectives();
  ASSERT_EQ(objectives.size(), 2u);
  EXPECT_DOUBLE_EQ(objectives.at("ledger"), 12.5);
  EXPECT_DOUBLE_EQ(objectives.at("orders"), 40.0);

  EXPECT_FALSE(SloRegistry::Instance().DeclareFromSpec("nodelim"));
  EXPECT_FALSE(SloRegistry::Instance().DeclareFromSpec("=5"));
  EXPECT_FALSE(SloRegistry::Instance().DeclareFromSpec("x="));
  EXPECT_FALSE(SloRegistry::Instance().DeclareFromSpec("x=0"));
  EXPECT_FALSE(SloRegistry::Instance().DeclareFromSpec("x=5junk"));
  // A bad entry does not poison the good ones around it.
  EXPECT_FALSE(SloRegistry::Instance().DeclareFromSpec("good=5,bad"));
  EXPECT_DOUBLE_EQ(SloRegistry::Instance().Objectives().at("good"), 5.0);
}

TEST_F(SloRegistryTest, FastTrafficReadsOk) {
  SloRegistry::Instance().Declare("ledger", /*p99_ms=*/1000);
  for (int i = 0; i < 500; ++i) {
    QueryLatencyFamily::Instance().Observe("ledger", "insert", "http", 100);
  }
  const auto verdicts = SloRegistry::Instance().Evaluate();
  ASSERT_EQ(verdicts.size(), 1u);
  EXPECT_EQ(verdicts[0].relation, "ledger");
  EXPECT_EQ(verdicts[0].total_count, 500u);
  EXPECT_EQ(verdicts[0].total_violations, 0u);
  EXPECT_TRUE(verdicts[0].total_ok);
  EXPECT_FALSE(verdicts[0].burning);
}

TEST_F(SloRegistryTest, SlowTrafficViolatesAndBurnsThenWindowRecovers) {
  SloRegistry::Instance().Declare("ledger", /*p99_ms=*/1);
  // Every observation sits in a log2 bucket entirely above the 1ms
  // objective, so the lenient watchdog still has to count them all.
  for (int i = 0; i < 100; ++i) {
    QueryLatencyFamily::Instance().Observe("ledger", "row_at_a_time", "http",
                                           1000 * 1000);
  }
  auto verdicts = SloRegistry::Instance().Evaluate();
  ASSERT_EQ(verdicts.size(), 1u);
  EXPECT_EQ(verdicts[0].total_violations, 100u);
  EXPECT_FALSE(verdicts[0].total_ok);
  EXPECT_EQ(verdicts[0].window_count, 100u);
  EXPECT_GT(verdicts[0].burn_rate, 1.0);
  EXPECT_TRUE(verdicts[0].burning);

  // No new traffic: the next window is clean, so the burn stops while the
  // total verdict keeps the violation on the record.
  verdicts = SloRegistry::Instance().Evaluate();
  ASSERT_EQ(verdicts.size(), 1u);
  EXPECT_FALSE(verdicts[0].total_ok);
  EXPECT_EQ(verdicts[0].window_count, 0u);
  EXPECT_FALSE(verdicts[0].burning);
  EXPECT_EQ(SloRegistry::Instance().Current().size(), 1u);
}

TEST_F(SloRegistryTest, StraddlingBucketCountsAsConforming) {
  // 2000us lands in the [1024, 2047] bucket, which straddles a 1.5ms
  // objective — the watchdog attributes leniently, so these observations
  // are conforming even though each one individually exceeded the target.
  // This is what keeps a server verdict from ever contradicting a passing
  // client-side gate.
  SloRegistry::Instance().Declare("ledger", /*p99_ms=*/1.5);
  for (int i = 0; i < 100; ++i) {
    QueryLatencyFamily::Instance().Observe("ledger", "insert", "http", 2000);
  }
  const auto verdicts = SloRegistry::Instance().Evaluate();
  ASSERT_EQ(verdicts.size(), 1u);
  EXPECT_EQ(verdicts[0].total_violations, 0u);
  EXPECT_TRUE(verdicts[0].total_ok);
}

TEST_F(SloRegistryTest, UndeclaredRelationsAreNotJudged) {
  SloRegistry::Instance().Declare("ledger", 10);
  QueryLatencyFamily::Instance().Observe("orders", "insert", "http", 50);
  const auto verdicts = SloRegistry::Instance().Evaluate();
  ASSERT_EQ(verdicts.size(), 1u);
  EXPECT_EQ(verdicts[0].relation, "ledger");
  EXPECT_EQ(verdicts[0].total_count, 0u);
  EXPECT_TRUE(verdicts[0].total_ok);

  SloRegistry::Instance().Remove("ledger");
  EXPECT_TRUE(SloRegistry::Instance().Evaluate().empty());
}

TEST_F(SloRegistryTest, HealthJsonCarriesVerdictsAndLabeledSeries) {
  SloRegistry::Instance().Declare("ledger", 10);
  QueryLatencyFamily::Instance().Observe("ledger", "row_at_a_time", "tsp1",
                                         250);
  ASSERT_OK_AND_ASSIGN(testing::JsonValue v,
                       JsonParser::Parse(SloRegistry::Instance().RenderHealthJson()));
  EXPECT_TRUE(v.has("unix_micros"));
  ASSERT_EQ(v.at("slos").array.size(), 1u);
  const testing::JsonValue& slo = v.at("slos").array[0];
  EXPECT_EQ(slo.at("relation").string, "ledger");
  EXPECT_EQ(slo.at("total").at("verdict").string, "ok");
  EXPECT_EQ(slo.at("window").at("verdict").string, "ok");
  ASSERT_EQ(v.at("series").array.size(), 1u);
  const testing::JsonValue& series = v.at("series").array[0];
  EXPECT_EQ(series.at("relation").string, "ledger");
  EXPECT_EQ(series.at("kind").string, "row_at_a_time");
  EXPECT_EQ(series.at("protocol").string, "tsp1");
  EXPECT_EQ(series.at("count").number, "1");
}

TEST_F(SloRegistryTest, EvaluatePublishesWatchdogGauges) {
  SloRegistry::Instance().Declare("ledger", /*p99_ms=*/1);
  for (int i = 0; i < 100; ++i) {
    QueryLatencyFamily::Instance().Observe("ledger", "insert", "http",
                                           1000 * 1000);
  }
  SloRegistry::Instance().Evaluate();
  const MetricsSnapshot snapshot = MetricsRegistry::Instance().Scrape();
  EXPECT_EQ(snapshot.gauges.at("tempspec.slo.relations"), 1);
  EXPECT_EQ(snapshot.gauges.at("tempspec.slo.burning"), 1);
  EXPECT_EQ(snapshot.gauges.at("tempspec.slo.ok.ledger"), 0);
  EXPECT_GT(snapshot.gauges.at("tempspec.slo.burn_rate_x100.ledger"), 100);
}

// -- SHOW HEALTH / SHOW HISTORY ----------------------------------------------

class HealthShowTest : public ::testing::Test {
 protected:
  void SetUp() override {
    SloRegistry::Instance().Clear();
    QueryLatencyFamily::Instance().Reset();
    MetricsHistory::Instance().Stop();
    MetricsHistory::Instance().Clear();
  }
  void TearDown() override {
    SloRegistry::Instance().Clear();
    QueryLatencyFamily::Instance().Reset();
    MetricsHistory::Instance().Clear();
  }

  Catalog catalog_;
};

TEST_F(HealthShowTest, ShowHealthRendersVerdictsAndSummary) {
  SloRegistry::Instance().DeclareFromSpec("ledger=10,orders=25");
  QueryLatencyFamily::Instance().Observe("ledger", "insert", "local", 100);
  ASSERT_OK_AND_ASSIGN(QueryOutput out, ExecuteQuery(catalog_, "SHOW HEALTH"));
  const std::string text = out.ToString();
  EXPECT_NE(text.find("\"relation\":\"ledger\""), std::string::npos) << text;
  EXPECT_NE(text.find("\"relation\":\"orders\""), std::string::npos) << text;
  EXPECT_NE(text.find("2 objective(s)"), std::string::npos) << text;
}

TEST_F(HealthShowTest, ShowHistoryHonorsLimit) {
  MetricsHistory::Instance().SetCapacity(8);
  for (int i = 0; i < 3; ++i) MetricsHistory::Instance().SampleOnce();
  ASSERT_OK_AND_ASSIGN(QueryOutput out,
                       ExecuteQuery(catalog_, "SHOW HISTORY LIMIT 2"));
  const std::string text = out.ToString();
  EXPECT_NE(text.find("2 sample(s) shown"), std::string::npos) << text;
  ASSERT_OK_AND_ASSIGN(QueryOutput all, ExecuteQuery(catalog_, "SHOW HISTORY"));
  EXPECT_NE(all.ToString().find("3 sample(s) shown"), std::string::npos)
      << all.ToString();
}

}  // namespace
}  // namespace tempspec
