// Slow-query log: threshold gating, ring eviction, JSONL sink validity.
#include "obs/span_store.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <limits>
#include <string>

#include "obs/trace.h"
#include "testing.h"
#include "testing_json.h"

namespace tempspec {
namespace {

using testing::JsonParser;

// TraceContext owns cancellation atomics, so it is neither copyable nor
// movable: spans are built in place.
void MakeSpan(const std::string& name, TraceContext* trace) {
  trace->Begin(name);
  trace->SetAttr("strategy", "full_scan");
  trace->AddCounter("elements_examined", 7);
  trace->End();
}

TEST(SlowQueryLogTest, ThresholdGatesRecording) {
  SpanStore log(/*capacity=*/8);
  log.SetThresholdMicros(std::numeric_limits<uint64_t>::max());
  TraceContext fast;
  MakeSpan("query.current", &fast);
  log.Record(fast, "CURRENT samples");
  EXPECT_EQ(log.TotalKept(SpanReason::kSlow), 0u);
  EXPECT_TRUE(log.Entries(SpanReason::kSlow).empty());

  log.SetThresholdMicros(0);  // record everything
  TraceContext slow;
  MakeSpan("query.current", &slow);
  log.Record(slow, "CURRENT samples");
  EXPECT_EQ(log.TotalKept(SpanReason::kSlow), 1u);
  ASSERT_EQ(log.Entries(SpanReason::kSlow).size(), 1u);
  EXPECT_EQ(log.Entries(SpanReason::kSlow)[0]->statement, "CURRENT samples");
  EXPECT_EQ(log.Entries(SpanReason::kSlow)[0]->sequence, 1u);
}

TEST(SlowQueryLogTest, RingEvictsOldestAndKeepsSequence) {
  SpanStore log(/*capacity=*/3);
  log.SetThresholdMicros(0);
  for (int i = 0; i < 5; ++i) {
    TraceContext t;
    MakeSpan("query.current", &t);
    log.Record(t, "stmt " + std::to_string(i));
  }
  EXPECT_EQ(log.TotalKept(SpanReason::kSlow), 5u);
  const auto entries = log.Entries(SpanReason::kSlow);
  ASSERT_EQ(entries.size(), 3u);
  EXPECT_EQ(entries[0]->statement, "stmt 2");
  EXPECT_EQ(entries[2]->statement, "stmt 4");
  EXPECT_EQ(entries[0]->sequence, 3u);
  EXPECT_EQ(entries[2]->sequence, 5u);
}

TEST(SlowQueryLogTest, ShrinkingCapacityDropsOldest) {
  SpanStore log(/*capacity=*/4);
  log.SetThresholdMicros(0);
  for (int i = 0; i < 4; ++i) {
    TraceContext t;
    MakeSpan("query.current", &t);
    log.Record(t, "stmt " + std::to_string(i));
  }
  log.SetCapacity(2);
  const auto entries = log.Entries(SpanReason::kSlow);
  ASSERT_EQ(entries.size(), 2u);
  EXPECT_EQ(entries[0]->statement, "stmt 2");
}

TEST(SlowQueryLogTest, EntryAndSinkLinesAreValidJson) {
  const std::string path = ::testing::TempDir() + "/tempspec_slowlog.jsonl";
  std::remove(path.c_str());
  SpanStore log(/*capacity=*/8);
  log.SetThresholdMicros(0);
  log.SetSinkPath(path);
  // Statement with every character class JsonEscape must handle.
  const std::string nasty =
      "CURRENT \"weird\"\\name\twith\nnewline and caf\xC3\xA9 \x01control";
  TraceContext t;
  MakeSpan("query.current", &t);
  log.Record(t, nasty);

  // The in-memory entry round-trips through the JSON parser.
  ASSERT_EQ(log.Entries(SpanReason::kSlow).size(), 1u);
  ASSERT_OK_AND_ASSIGN(
      testing::JsonValue v,
      JsonParser::Parse(log.Entries(SpanReason::kSlow)[0]->SlowJson()));
  EXPECT_TRUE(v.has("trace"));
  EXPECT_EQ(v.at("statement").string, nasty);
  EXPECT_EQ(v.at("trace").at("attrs").at("strategy").string, "full_scan");

  // And the sink file holds the identical line.
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::string line;
  ASSERT_TRUE(std::getline(in, line));
  EXPECT_EQ(line, log.Entries(SpanReason::kSlow)[0]->SlowJson());
  std::remove(path.c_str());
}

TEST(SlowQueryLogTest, EntriesCarryTheTraceIdForJoiningRetainedSpans) {
  SpanStore log(/*capacity=*/8);
  log.SetThresholdMicros(0);
  TraceContext t;
  MakeSpan("query.current", &t);
  ASSERT_NE(t.trace_id(), 0u);
  log.Record(t, "CURRENT samples");
  ASSERT_EQ(log.Entries(SpanReason::kSlow).size(), 1u);
  // The entry's trace_id is the join key against /debug/traces and
  // SHOW TRACES: the same process-unique id the span itself carries.
  EXPECT_EQ(log.Entries(SpanReason::kSlow)[0]->span.trace_id, t.trace_id());
  ASSERT_OK_AND_ASSIGN(
      testing::JsonValue v,
      JsonParser::Parse(log.Entries(SpanReason::kSlow)[0]->SlowJson()));
  EXPECT_EQ(v.at("trace_id").number, std::to_string(t.trace_id()));
  EXPECT_EQ(v.at("trace").at("trace_id").number,
            std::to_string(t.trace_id()));
}

TEST(SlowQueryLogTest, EntriesCarryProtocolPeerAndWireTrace) {
  SpanStore log(/*capacity=*/8);
  log.SetThresholdMicros(0);
  TraceContext t;
  t.SetWireTrace(0x0123456789abcdefULL, 0xfedcba9876543210ULL, 42);
  t.Begin("server.request");
  t.SetAttr("protocol", "tsp1");
  t.SetAttr("peer", "127.0.0.1:5555");
  t.End();
  log.Record(t, "CURRENT samples");
  ASSERT_EQ(log.Entries(SpanReason::kSlow).size(), 1u);
  const StoredSpan entry = *log.Entries(SpanReason::kSlow)[0];
  EXPECT_EQ(entry.span.attr("protocol"), "tsp1");
  EXPECT_EQ(entry.span.attr("peer"), "127.0.0.1:5555");
  EXPECT_EQ(entry.span.WireTraceId(), "0123456789abcdeffedcba9876543210");
  ASSERT_OK_AND_ASSIGN(testing::JsonValue v,
                       JsonParser::Parse(entry.SlowJson()));
  EXPECT_EQ(v.at("protocol").string, "tsp1");
  EXPECT_EQ(v.at("peer").string, "127.0.0.1:5555");
  EXPECT_EQ(v.at("wire_trace").string, "0123456789abcdeffedcba9876543210");
}

TEST(SlowQueryLogTest, LocalEntriesOmitWireFields) {
  // A span recorded by in-process execution (no network server, no
  // propagated trace) keeps its JSON line free of the wire keys entirely —
  // absent, not empty strings.
  SpanStore log(/*capacity=*/8);
  log.SetThresholdMicros(0);
  TraceContext t;
  MakeSpan("query.current", &t);
  log.Record(t, "CURRENT samples");
  ASSERT_EQ(log.Entries(SpanReason::kSlow).size(), 1u);
  EXPECT_TRUE(
      log.Entries(SpanReason::kSlow)[0]->span.attr("protocol").empty());
  EXPECT_TRUE(log.Entries(SpanReason::kSlow)[0]->span.WireTraceId().empty());
  ASSERT_OK_AND_ASSIGN(
      testing::JsonValue v,
      JsonParser::Parse(log.Entries(SpanReason::kSlow)[0]->SlowJson()));
  EXPECT_FALSE(v.has("protocol"));
  EXPECT_FALSE(v.has("peer"));
  EXPECT_FALSE(v.has("wire_trace"));
}

TEST(SlowQueryLogTest, ClearResetsRingAndSequence) {
  SpanStore log(/*capacity=*/2);
  log.SetThresholdMicros(0);
  TraceContext t;
  MakeSpan("query.current", &t);
  log.Record(t, "stmt");
  log.Clear();
  EXPECT_EQ(log.TotalKept(SpanReason::kSlow), 0u);
  EXPECT_TRUE(log.Entries(SpanReason::kSlow).empty());
}

TEST(SlowQueryLogTest, RecordEndsAnOpenSpan) {
  SpanStore log(/*capacity=*/2);
  log.SetThresholdMicros(0);
  TraceContext t;
  t.Begin("query.current");  // deliberately not ended
  log.Record(t, "stmt");
  ASSERT_EQ(log.Entries(SpanReason::kSlow).size(), 1u);
  ASSERT_OK(
      testing::ValidJson(log.Entries(SpanReason::kSlow)[0]->span.ToJson()));
}

}  // namespace
}  // namespace tempspec
