// Unit tests for the metrics registry: counter/gauge/histogram semantics,
// sharded concurrency, log2 bucketing and percentile estimates, scrape JSON,
// reset-in-place, and the TS_* call-site macros.
#include "obs/metrics.h"

#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "testing.h"
#include "testing_json.h"
#include "util/random.h"

namespace tempspec {
namespace {

TEST(MetricsTest, CounterAddsAndResets) {
  MetricCounter c("test.counter");
  EXPECT_EQ(c.Value(), 0u);
  c.Increment();
  c.Add(41);
  EXPECT_EQ(c.Value(), 42u);
  c.Reset();
  EXPECT_EQ(c.Value(), 0u);
  c.Add(7);
  EXPECT_EQ(c.Value(), 7u);
}

TEST(MetricsTest, CounterSumsAcrossThreads) {
  MetricCounter c("test.threads");
  constexpr int kThreads = 8;
  constexpr uint64_t kPerThread = 20000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&c] {
      for (uint64_t i = 0; i < kPerThread; ++i) c.Increment();
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(c.Value(), kThreads * kPerThread);
}

TEST(MetricsTest, GaugeSetAndAdd) {
  MetricGauge g("test.gauge");
  g.Set(10);
  EXPECT_EQ(g.Value(), 10);
  g.Add(-3);
  EXPECT_EQ(g.Value(), 7);
  g.Add(3);
  g.Set(-5);  // signed: paired Add(+1)/Add(-1) may transiently dip below zero
  EXPECT_EQ(g.Value(), -5);
}

TEST(MetricsTest, HistogramBucketBoundaries) {
  EXPECT_EQ(HistogramBucketFor(0), 0u);
  EXPECT_EQ(HistogramBucketFor(1), 1u);
  EXPECT_EQ(HistogramBucketFor(2), 2u);
  EXPECT_EQ(HistogramBucketFor(3), 2u);
  EXPECT_EQ(HistogramBucketFor(4), 3u);
  EXPECT_EQ(HistogramBucketFor(1023), 10u);
  EXPECT_EQ(HistogramBucketFor(1024), 11u);
  EXPECT_EQ(HistogramBucketFor(~uint64_t{0}), 64u);
  // Bucket b holds values in [2^(b-1), 2^b); its inclusive upper bound is
  // the largest member.
  EXPECT_EQ(HistogramBucketUpperBound(0), 0u);
  EXPECT_EQ(HistogramBucketUpperBound(1), 1u);
  EXPECT_EQ(HistogramBucketUpperBound(2), 3u);
  EXPECT_EQ(HistogramBucketUpperBound(11), 2047u);
  for (uint64_t v : {uint64_t{1}, uint64_t{17}, uint64_t{4096},
                     uint64_t{999999}}) {
    EXPECT_LE(v, HistogramBucketUpperBound(HistogramBucketFor(v))) << v;
  }
}

TEST(MetricsTest, HistogramSnapshotAndPercentiles) {
  MetricHistogram h("test.hist");
  for (int i = 0; i < 90; ++i) h.Observe(1);     // bucket 1
  for (int i = 0; i < 10; ++i) h.Observe(1000);  // bucket 10
  const HistogramSnapshot snap = h.Snapshot();
  EXPECT_EQ(snap.count, 100u);
  EXPECT_EQ(snap.sum, 90u * 1 + 10u * 1000);
  ASSERT_EQ(snap.buckets.size(), 2u);
  EXPECT_EQ(snap.buckets[0].first, 1u);
  EXPECT_EQ(snap.buckets[0].second, 90u);
  EXPECT_EQ(snap.buckets[1].first, 10u);
  EXPECT_EQ(snap.buckets[1].second, 10u);
  // p50 lands in the first bucket; p99 in the second (upper-bound estimate).
  EXPECT_EQ(snap.Percentile(0.5), 1u);
  EXPECT_EQ(snap.Percentile(0.99), HistogramBucketUpperBound(10));
  EXPECT_DOUBLE_EQ(snap.Mean(), (90.0 + 10 * 1000) / 100.0);
  h.Reset();
  EXPECT_EQ(h.Snapshot().count, 0u);
  EXPECT_EQ(h.Snapshot().sum, 0u);
}

TEST(MetricsTest, EmptyHistogramPercentile) {
  MetricHistogram h("test.empty");
  const HistogramSnapshot snap = h.Snapshot();
  EXPECT_EQ(snap.count, 0u);
  EXPECT_EQ(snap.Percentile(0.99), 0u);
  EXPECT_DOUBLE_EQ(snap.Mean(), 0.0);
}

TEST(MetricsTest, PercentileEdgeCases) {
  // Empty: every p answers 0 (already covered above for p99; pin the edges).
  EXPECT_EQ(HistogramSnapshot{}.Percentile(0.0), 0u);
  EXPECT_EQ(HistogramSnapshot{}.Percentile(1.0), 0u);

  MetricHistogram h("test.percentile_edges");
  for (int i = 0; i < 5; ++i) h.Observe(100);  // single bucket
  const HistogramSnapshot single = h.Snapshot();
  ASSERT_EQ(single.buckets.size(), 1u);
  const uint64_t bound = HistogramBucketUpperBound(single.buckets[0].first);
  // With one occupied bucket every quantile collapses to its upper bound,
  // and out-of-range p clamps rather than misbehaving.
  EXPECT_EQ(single.Percentile(0.0), bound);
  EXPECT_EQ(single.Percentile(0.5), bound);
  EXPECT_EQ(single.Percentile(1.0), bound);
  EXPECT_EQ(single.Percentile(-0.5), bound);
  EXPECT_EQ(single.Percentile(2.0), bound);

  // p=0 answers the first occupied bucket, p=1 the last.
  MetricHistogram two("test.percentile_two");
  two.Observe(1);
  two.Observe(1000);
  const HistogramSnapshot snap = two.Snapshot();
  EXPECT_EQ(snap.Percentile(0.0), HistogramBucketUpperBound(1));
  EXPECT_EQ(snap.Percentile(1.0), HistogramBucketUpperBound(10));
}

TEST(MetricsTest, PercentilesAreMonotoneOverRandomFills) {
  Random rng(20260805);
  for (int round = 0; round < 50; ++round) {
    MetricHistogram h("test.percentile_mono");
    const int n = static_cast<int>(rng.Uniform(1, 200));
    for (int i = 0; i < n; ++i) {
      h.Observe(static_cast<uint64_t>(rng.Uniform(0, 1 << 20)));
    }
    const HistogramSnapshot snap = h.Snapshot();
    uint64_t prev = 0;
    for (double p : {0.0, 0.25, 0.5, 0.9, 0.99, 1.0}) {
      const uint64_t q = snap.Percentile(p);
      EXPECT_GE(q, prev) << "p=" << p << " round=" << round;
      prev = q;
    }
  }
}

/// Random string from character classes JsonEscape must handle: quotes,
/// backslashes, named and unnamed control characters, and multi-byte UTF-8.
std::string NastyString(Random& rng) {
  static const std::string kPieces[] = {
      "plain", "x", "\"", "\\", "\n", "\t", "\r", "\b", "\f",
      std::string(1, '\x01'), std::string(1, '\x1f'),
      "caf\xC3\xA9",          // é (2-byte UTF-8)
      "\xE2\x86\x92",         // → (3-byte UTF-8)
      "\xF0\x9F\x92\xBE",     // 💾 (4-byte UTF-8)
      "\\u0041", "{}", "[]", ":"};
  constexpr int64_t kNumPieces = sizeof(kPieces) / sizeof(kPieces[0]);
  std::string out;
  const int pieces = static_cast<int>(rng.Uniform(0, 20));
  for (int i = 0; i < pieces; ++i) {
    out += kPieces[rng.Uniform(0, kNumPieces - 1)];
  }
  return out;
}

TEST(MetricsTest, JsonEscapeFuzzRoundTrip) {
  Random rng(424242);
  for (int i = 0; i < 500; ++i) {
    const std::string original = NastyString(rng);
    const std::string doc = "\"" + JsonEscape(original) + "\"";
    ASSERT_OK_AND_ASSIGN(testing::JsonValue v, testing::JsonParser::Parse(doc));
    EXPECT_EQ(v.string, original) << "doc: " << doc;
  }
}

TEST(MetricsTest, SnapshotJsonRoundTripsNastyMetricNames) {
  MetricsRegistry& reg = MetricsRegistry::Instance();
  const std::string nasty = "metrics_test.nasty \"quoted\\name\"\twith caf\xC3\xA9";
  reg.GetCounter(nasty).Add(3);
  reg.GetHistogram("metrics_test.roundtrip_hist").Observe(17);
  ASSERT_OK_AND_ASSIGN(testing::JsonValue doc,
                       testing::JsonParser::Parse(reg.Scrape().ToJson()));
  ASSERT_TRUE(doc.at("counters").has(nasty));
  EXPECT_EQ(doc.at("counters").at(nasty).number, "3");
  ASSERT_TRUE(doc.at("histograms").has("metrics_test.roundtrip_hist"));
  EXPECT_TRUE(doc.at("histograms").at("metrics_test.roundtrip_hist").has("p50"));
}

TEST(MetricsTest, RegistryHandlesAreStableAndScrapable) {
  MetricsRegistry& reg = MetricsRegistry::Instance();
  MetricCounter& c = reg.GetCounter("metrics_test.stable");
  EXPECT_EQ(&c, &reg.GetCounter("metrics_test.stable"));
  c.Add(5);
  MetricGauge& g = reg.GetGauge("metrics_test.gauge");
  g.Set(3);
  reg.GetHistogram("metrics_test.hist").Observe(64);

  const MetricsSnapshot snap = reg.Scrape();
  EXPECT_GE(snap.counter("metrics_test.stable"), 5u);
  EXPECT_EQ(snap.counter("metrics_test.never_registered"), 0u);
  ASSERT_TRUE(snap.gauges.count("metrics_test.gauge"));
  EXPECT_EQ(snap.gauges.at("metrics_test.gauge"), 3);
  ASSERT_TRUE(snap.histograms.count("metrics_test.hist"));
  EXPECT_GE(snap.histograms.at("metrics_test.hist").count, 1u);
}

TEST(MetricsTest, ResetValuesZeroesButKeepsHandles) {
  MetricsRegistry& reg = MetricsRegistry::Instance();
  MetricCounter& c = reg.GetCounter("metrics_test.reset");
  c.Add(9);
  const size_t before = reg.MetricCount();
  reg.ResetValues();
  EXPECT_EQ(reg.MetricCount(), before);  // names stay registered
  EXPECT_EQ(c.Value(), 0u);              // the handle still works...
  c.Increment();
  EXPECT_EQ(reg.Scrape().counter("metrics_test.reset"), 1u);
}

TEST(MetricsTest, SnapshotJsonIsWellFormed) {
  MetricsRegistry& reg = MetricsRegistry::Instance();
  reg.GetCounter("metrics_test.json\"quoted").Increment();
  const std::string json = reg.Scrape().ToJson();
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
  EXPECT_NE(json.find("\"counters\":{"), std::string::npos);
  EXPECT_NE(json.find("\"gauges\":{"), std::string::npos);
  EXPECT_NE(json.find("\"histograms\":{"), std::string::npos);
  // The quote in the metric name must be escaped.
  EXPECT_NE(json.find("metrics_test.json\\\"quoted"), std::string::npos);
  EXPECT_EQ(json.find("json\"quoted"), std::string::npos);
  EXPECT_EQ(json.find('\n'), std::string::npos) << "single line";
}

TEST(MetricsTest, JsonEscapeHandlesControlCharacters) {
  EXPECT_EQ(JsonEscape("plain"), "plain");
  EXPECT_EQ(JsonEscape("a\"b"), "a\\\"b");
  EXPECT_EQ(JsonEscape("a\\b"), "a\\\\b");
  EXPECT_EQ(JsonEscape("a\nb"), "a\\nb");
  EXPECT_EQ(JsonEscape(std::string("a\x01") + "b"), "a\\u0001b");
}

TEST(MetricsTest, MacrosRecordIntoTheRegistry) {
  MetricsRegistry& reg = MetricsRegistry::Instance();
  TS_COUNTER_INC("metrics_test.macro_probe");
  TS_COUNTER_ADD("metrics_test.macro_probe", 2);
  TS_GAUGE_SET("metrics_test.macro_gauge", 11);
  TS_HISTOGRAM_OBSERVE("metrics_test.macro_hist", 5);
  const MetricsSnapshot snap = reg.Scrape();
  EXPECT_EQ(snap.counter("metrics_test.macro_probe"), 3u);
  EXPECT_EQ(snap.gauges.at("metrics_test.macro_gauge"), 11);
  EXPECT_EQ(snap.histograms.at("metrics_test.macro_hist").count, 1u);
}

}  // namespace
}  // namespace tempspec
