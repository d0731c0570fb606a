// Span store: per-reason rings (a slow statement outlives fast sampled
// traffic), one stored copy per kept span, and recorders racing readers.
#include "obs/span_store.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <fstream>
#include <limits>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "catalog/query_lang.h"
#include "testing.h"
#include "testing_json.h"

namespace tempspec {
namespace {

using testing::JsonParser;

// The SHOW verbs read the process-wide store; each test restores its
// defaults so test order does not matter.
class SpanStoreTest : public ::testing::Test {
 protected:
  void SetUp() override { Reset(); }
  void TearDown() override { Reset(); }

  static void Reset() {
    SpanStore& store = SpanStore::Instance();
    store.SetCapacity(128);
    store.SetSampleEvery(1);
    store.SetThresholdMicros(10000);
    store.SetSinkPath("");
    store.Clear();
  }

  Catalog catalog_;
};

TEST_F(SpanStoreTest, FastSampledSpansNeverEvictASlowStatement) {
  SpanStore& store = SpanStore::Instance();
  store.SetCapacity(4);
  // The threshold, not the clock, decides what is slow, so no fast span
  // can turn slow on a loaded host.
  store.SetThresholdMicros(0);
  TraceContext slow;
  slow.Begin("query.range");
  store.Record(slow, "RANGE slow");
  store.SetThresholdMicros(std::numeric_limits<uint64_t>::max());
  for (int i = 0; i < 1000; ++i) {
    TraceContext fast;
    fast.Begin("query.current");
    store.Record(fast, "CURRENT fast");
  }

  ASSERT_OK_AND_ASSIGN(QueryOutput out,
                       ExecuteQuery(catalog_, "SHOW SLOW QUERIES"));
  EXPECT_NE(out.report.find("\"statement\":\"RANGE slow\""), std::string::npos)
      << out.report;
  EXPECT_NE(out.report.find("1 slow query shown (1 recorded"),
            std::string::npos)
      << out.report;
  ASSERT_OK_AND_ASSIGN(QueryOutput traces,
                       ExecuteQuery(catalog_, "SHOW TRACES"));
  EXPECT_NE(traces.report.find("4 trace(s) shown (1001 retained of 1001 seen"),
            std::string::npos)
      << traces.report;
  EXPECT_EQ(traces.report.find("RANGE slow"), std::string::npos);
}

TEST_F(SpanStoreTest, SpanKeptForBothReasonsIsStoredOnce) {
  SpanStore& store = SpanStore::Instance();
  store.SetThresholdMicros(0);
  TraceContext t;
  t.Begin("query.current");
  store.Record(t, "CURRENT samples");
  const auto slow = store.Entries(SpanReason::kSlow);
  const auto sampled = store.Entries(SpanReason::kSampled);
  ASSERT_EQ(slow.size(), 1u);
  ASSERT_EQ(sampled.size(), 1u);
  EXPECT_EQ(slow[0].get(), sampled[0].get());
  EXPECT_EQ(slow[0]->sequence, 1u);
}

TEST(SpanStoreRingTest, GrowingAWrappedRingKeepsItsSpansInOrder) {
  SpanStore store(/*capacity=*/2, /*sample_every=*/1);
  auto record = [&store](const char* name) {
    TraceContext span;
    span.Begin(name);
    store.Record(span);
  };
  auto names = [&store] {
    std::string out;
    for (const auto& e : store.Entries(SpanReason::kSampled)) {
      out += e->span.name;
    }
    return out;
  };
  for (const char* name : {"a", "b", "c"}) record(name);
  store.SetCapacity(4);
  EXPECT_EQ(names(), "bc");
  for (const char* name : {"d", "e", "f"}) record(name);
  EXPECT_EQ(names(), "cdef");
}

// Checks a SHOW report: each line but the summary is one JSON object, and
// the slow view numbers its lines consecutively. Returns "" when sound.
std::string CheckReport(const std::string& report, bool slow_view) {
  std::istringstream lines(report);
  std::string line;
  uint64_t previous = 0;
  while (std::getline(lines, line)) {
    if (line.empty() || line[0] != '{') continue;  // the summary line
    Result<testing::JsonValue> v = JsonParser::Parse(line);
    if (!v.ok()) return "invalid line: " + line;
    if (!slow_view) continue;
    const uint64_t seq = std::stoull(v.ValueOrDie().at("sequence").number);
    if (previous != 0 && seq != previous + 1) {
      return "slow view skips from " + std::to_string(previous) + " to " +
             std::to_string(seq);
    }
    previous = seq;
  }
  return "";
}

// Four recorders offer the three span shapes the engine produces (a server
// request, a local statement, background work) while a fifth thread renders
// both views. Afterwards every offered span is accounted for, the slow view
// numbers its spans without gaps, and the sink holds each slow span once.
TEST_F(SpanStoreTest, RecordersRaceReaders) {
  constexpr int kRecorders = 4;
  constexpr int kSpansPerRecorder = 2000;
  const std::string sink = ::testing::TempDir() + "/tempspec_span_store.jsonl";
  std::remove(sink.c_str());
  SpanStore& store = SpanStore::Instance();
  store.SetCapacity(16);
  store.SetThresholdMicros(0);
  store.SetSinkPath(sink);

  std::atomic<int> running{kRecorders};
  std::vector<int> statements(kRecorders, 0);
  std::vector<std::thread> recorders;
  for (int r = 0; r < kRecorders; ++r) {
    recorders.emplace_back([&, r] {
      for (int i = 0; i < kSpansPerRecorder; ++i) {
        TraceContext span;
        switch ((i + r) % 3) {
          case 0:
            span.SetWireTrace(0x0123456789abcdefULL, static_cast<uint64_t>(i),
                              42);
            span.Begin("server.request");
            span.SetAttr("protocol", r % 2 == 0 ? "tsp1" : "http");
            span.SetAttr("peer", "127.0.0.1:5555");
            span.AddStage("queue.wait", 1);
            span.AddStage("execute", 2);
            span.AddStage("respond", 3);
            store.Record(span, "CURRENT remote");
            ++statements[r];
            break;
          case 1:
            span.Begin("query.current");
            span.AddCounter("elements_examined", static_cast<uint64_t>(i));
            store.Record(span, "CURRENT local \"quoted\"");
            ++statements[r];
            break;
          default:
            span.Begin("background.vacuum");
            span.AddCounter("elements_dropped", 1);
            store.Record(span);
            break;
        }
      }
      running.fetch_sub(1);
    });
  }

  std::string failure;
  size_t renders = 0;
  std::thread reader([&] {
    do {
      Result<QueryOutput> slow = ExecuteQuery(catalog_, "SHOW SLOW QUERIES");
      Result<QueryOutput> traces = ExecuteQuery(catalog_, "SHOW TRACES");
      failure = !slow.ok() || !traces.ok()
                    ? "SHOW failed"
                    : CheckReport(slow.ValueOrDie().report, true) +
                          CheckReport(traces.ValueOrDie().report, false);
      ++renders;
    } while (failure.empty() && running.load() > 0);
  });
  for (std::thread& t : recorders) t.join();
  reader.join();
  EXPECT_EQ(failure, "");
  EXPECT_GT(renders, 0u);

  int total_statements = 0;
  for (int n : statements) total_statements += n;
  const uint64_t offered = kRecorders * kSpansPerRecorder;
  EXPECT_EQ(store.TotalSeen(), offered);
  EXPECT_EQ(store.TotalKept(SpanReason::kSampled), offered);
  EXPECT_EQ(store.TotalKept(SpanReason::kSlow),
            static_cast<uint64_t>(total_statements));
  EXPECT_EQ(store.Entries(SpanReason::kSlow).size(), 16u);
  EXPECT_EQ(store.Entries(SpanReason::kSampled).size(), 16u);

  std::ifstream in(sink);
  std::set<uint64_t> sequences;
  size_t lines = 0;
  std::string line;
  while (std::getline(in, line)) {
    ASSERT_OK_AND_ASSIGN(testing::JsonValue v, JsonParser::Parse(line));
    sequences.insert(std::stoull(v.at("sequence").number));
    ++lines;
  }
  EXPECT_EQ(lines, static_cast<size_t>(total_statements));
  ASSERT_EQ(sequences.size(), static_cast<size_t>(total_statements));
  EXPECT_EQ(*sequences.begin(), 1u);
  EXPECT_EQ(*sequences.rbegin(), static_cast<uint64_t>(total_statements));
  std::remove(sink.c_str());
}

}  // namespace
}  // namespace tempspec
