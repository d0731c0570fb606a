// Cross-protocol equivalence: the HTTP /query plane and the TSP1 frame
// plane are two encodings of the same service, so the same statement must
// produce the same answer — byte-identical payloads for reads and EXPLAIN,
// and the same outcome taxonomy for every error class (200<->kResult,
// 400<->kError, 503<->kRejected). Also covers the production QueryClient
// (src/net/client.h) the simulator's tenant drivers speak through: its
// WireOutcome classification must agree across protocols too.
#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "catalog/query_service.h"
#include "net/client.h"
#include "net/net_test_client.h"
#include "net/server.h"
#include "obs/span_store.h"
#include "testing.h"
#include "workload/tenant_driver.h"

namespace tempspec {
namespace {

using testing::ExecReply;
using testing::ExecuteStatement;
using testing::TestClient;

class CrossProtocolTest : public ::testing::Test {
 protected:
  void StartServer() {
    service_ = std::make_unique<QueryService>(QueryServiceOptions{});
    ASSERT_OK(service_->Open());
    ServerOptions options;
    options.bind_address = "127.0.0.1";
    options.port = 0;
    options.worker_threads = 2;
    server_ = std::make_unique<NetServer>(std::move(options));
    server_->SetStatementHandler(
        [this](const std::string& statement, TraceContext* trace) {
          return service_->Execute(statement, trace);
        });
    ASSERT_OK(server_->Start());
  }

  void TearDown() override {
    if (server_) server_->Stop();
  }

  std::unique_ptr<QueryService> service_;
  std::unique_ptr<NetServer> server_;
};

TEST_F(CrossProtocolTest, ReadsAreByteIdenticalAcrossProtocols) {
  StartServer();
  ASSERT_OK(service_
                ->Execute(
                    "CREATE EVENT RELATION xp (sensor INT64 KEY, v DOUBLE) "
                    "GRANULARITY 1s",
                    nullptr)
                .status());
  for (int i = 0; i < 5; ++i) {
    ASSERT_OK(service_
                  ->Execute("INSERT INTO xp OBJECT " + std::to_string(i + 1) +
                                " VALUES (" + std::to_string(i + 1) + ", " +
                                std::to_string(i) +
                                ".5) VALID AT '1970-01-01 00:00:0" +
                                std::to_string(i) + "'",
                            nullptr)
                  .status());
  }

  TestClient http(server_->port());
  TestClient tsp1(server_->port());
  ASSERT_TRUE(http.connected());
  ASSERT_TRUE(tsp1.connected());

  const std::string reads[] = {
      "CURRENT xp",
      "TIMESLICE xp AT '1970-01-01 00:00:03'",
      "TIMESLICE xp AT '1970-01-01 00:00:03' AS OF '1970-01-01 00:00:02'",
      "RANGE xp FROM '1970-01-01 00:00:01' TO '1970-01-01 00:00:04'",
      "SHOW SPECIALIZATION xp",
      "EXPLAIN TIMESLICE xp AT '1970-01-01 00:00:03'",
  };
  for (const std::string& statement : reads) {
    const ExecReply via_http = ExecuteStatement(http, statement,
                                                /*frames=*/false);
    const ExecReply via_tsp1 = ExecuteStatement(tsp1, statement,
                                                /*frames=*/true);
    ASSERT_TRUE(via_http.transport_ok) << statement;
    ASSERT_TRUE(via_tsp1.transport_ok) << statement;
    EXPECT_TRUE(via_http.accepted) << statement << ": " << via_http.body;
    EXPECT_TRUE(via_tsp1.accepted) << statement << ": " << via_tsp1.body;
    EXPECT_EQ(via_http.body, via_tsp1.body)
        << "protocols disagree on '" << statement << "'";
  }
}

TEST_F(CrossProtocolTest, ErrorTaxonomyMatchesAcrossProtocols) {
  StartServer();
  ASSERT_OK(service_
                ->Execute(
                    "CREATE EVENT RELATION xp (sensor INT64 KEY, v DOUBLE) "
                    "GRANULARITY 1d WITH DEGENERATE",
                    nullptr)
                .status());

  TestClient http(server_->port());
  TestClient tsp1(server_->port());
  ASSERT_TRUE(http.connected());
  ASSERT_TRUE(tsp1.connected());

  // Deterministic error payloads: parser and catalog errors mention no
  // relation clock, so the bodies must match byte for byte — modulo the
  // HTTP plane's deliberate trailing newline (curl-friendliness) and its
  // semantic status mapping (Not found rides 404 where TSP1 has only
  // kError). Both are protocol encodings of the same Status.
  const std::string deterministic_errors[] = {
      "FROB THE DATABASE",
      "CURRENT no_such_relation",
      "RANGE xp FROM '1970-01-05 00:00:00' TO '1970-01-02 00:00:00'",
  };
  for (const std::string& statement : deterministic_errors) {
    const ExecReply via_http = ExecuteStatement(http, statement,
                                                /*frames=*/false);
    const ExecReply via_tsp1 = ExecuteStatement(tsp1, statement,
                                                /*frames=*/true);
    ASSERT_TRUE(via_http.transport_ok) << statement;
    ASSERT_TRUE(via_tsp1.transport_ok) << statement;
    EXPECT_FALSE(via_http.accepted) << statement;
    EXPECT_FALSE(via_tsp1.accepted) << statement;
    EXPECT_GE(via_http.code, 400) << statement << ": " << via_http.body;
    EXPECT_LT(via_http.code, 500) << statement << ": " << via_http.body;
    std::string http_body = via_http.body;
    ASSERT_FALSE(http_body.empty()) << statement;
    ASSERT_EQ(http_body.back(), '\n') << statement << ": " << http_body;
    http_body.pop_back();
    EXPECT_EQ(http_body, via_tsp1.body)
        << "protocols disagree on '" << statement << "'";
  }

  // Constraint rejections embed the transaction-time stamp, which ticks on
  // every attempt — assert class equivalence instead of byte equality.
  const std::string drifted =
      "INSERT INTO xp OBJECT 1 VALUES (1, 1.0) VALID AT '1995-06-01 00:00:00'";
  const ExecReply via_http = ExecuteStatement(http, drifted, /*frames=*/false);
  const ExecReply via_tsp1 = ExecuteStatement(tsp1, drifted, /*frames=*/true);
  ASSERT_TRUE(via_http.transport_ok);
  ASSERT_TRUE(via_tsp1.transport_ok);
  EXPECT_EQ(via_http.code, 400) << via_http.body;
  EXPECT_EQ(via_tsp1.code, 400) << via_tsp1.body;
  EXPECT_EQ(via_http.body.rfind("Constraint violation", 0), 0u)
      << via_http.body;
  EXPECT_EQ(via_tsp1.body.rfind("Constraint violation", 0), 0u)
      << via_tsp1.body;
}

TEST_F(CrossProtocolTest, QueryClientClassifiesIdenticallyAcrossProtocols) {
  StartServer();
  ASSERT_OK(service_
                ->Execute(
                    "CREATE EVENT RELATION xp (sensor INT64 KEY, v DOUBLE) "
                    "GRANULARITY 1s",
                    nullptr)
                .status());
  ASSERT_OK(service_
                ->Execute(
                    "INSERT INTO xp OBJECT 1 VALUES (1, 2.5) "
                    "VALID AT '1970-01-01 00:00:00'",
                    nullptr)
                .status());

  for (ClientProtocol protocol :
       {ClientProtocol::kHttp, ClientProtocol::kTsp1}) {
    ClientOptions options;
    options.protocol = protocol;
    QueryClient client(options);
    ASSERT_OK(client.Connect(server_->port()));

    WireReply ok = client.Execute("CURRENT xp");
    EXPECT_EQ(ok.outcome, WireOutcome::kOk)
        << WireOutcomeToString(ok.outcome) << ": " << ok.body;
    EXPECT_NE(ok.body.find("1 element(s)"), std::string::npos) << ok.body;

    WireReply bad = client.Execute("FROB THE DATABASE");
    EXPECT_EQ(bad.outcome, WireOutcome::kClientError)
        << WireOutcomeToString(bad.outcome) << ": " << bad.body;

    WireReply missing = client.Execute("CURRENT no_such_relation");
    EXPECT_EQ(missing.outcome, WireOutcome::kClientError)
        << WireOutcomeToString(missing.outcome) << ": " << missing.body;

    // The connection survives errors: the next statement still executes.
    WireReply again = client.Execute("CURRENT xp");
    EXPECT_EQ(again.outcome, WireOutcome::kOk);
    EXPECT_EQ(again.body, ok.body);
    client.Close();
  }
}

TEST_F(CrossProtocolTest, RepliesOverOneMebibyteMatchAcrossProtocols) {
  // The server caps the frames it decodes (requests) at 1 MiB, but a reply
  // is as long as the statement's output: QueryClient must read a reply
  // over the cap whole on TSP1, exactly as it does on HTTP.
  StartServer();
  ASSERT_OK(service_
                ->Execute(
                    "CREATE EVENT RELATION wide (id INT64 KEY, note STRING) "
                    "GRANULARITY 1s",
                    nullptr)
                .status());
  const std::string note(240, 'n');
  constexpr int kRows = 4000;
  for (int i = 0; i < kRows; ++i) {
    ASSERT_OK(service_
                  ->Execute("INSERT INTO wide OBJECT " + std::to_string(i + 1) +
                                " VALUES (" + std::to_string(i) + ", '" + note +
                                "') VALID AT '1970-01-01 01:00:00'",
                            nullptr)
                  .status());
  }

  std::string bodies[2];
  int index = 0;
  for (ClientProtocol protocol :
       {ClientProtocol::kHttp, ClientProtocol::kTsp1}) {
    ClientOptions options;
    options.protocol = protocol;
    QueryClient client(options);
    ASSERT_OK(client.Connect(server_->port()));
    WireReply reply = client.Execute("CURRENT wide");
    ASSERT_EQ(reply.outcome, WireOutcome::kOk)
        << WireOutcomeToString(reply.outcome) << ": "
        << reply.body.substr(0, 200);
    // The connection stays usable after the large reply.
    WireReply after = client.Execute("CURRENT no_such_relation");
    EXPECT_EQ(after.outcome, WireOutcome::kClientError) << after.body;
    bodies[index++] = std::move(reply.body);
  }
  EXPECT_GT(bodies[0].size(), size_t{1024 * 1024});
  EXPECT_NE(bodies[0].find(std::to_string(kRows) + " element(s)"),
            std::string::npos);
  EXPECT_TRUE(bodies[0] == bodies[1])
      << "HTTP reply " << bodies[0].size() << " bytes, TSP1 reply "
      << bodies[1].size() << " bytes";

  // The request cap stays: a statement over 1 MiB is a protocol error that
  // never executes.
  const uint64_t errors_before = server_->Stats().protocol_errors;
  ClientOptions options;
  options.protocol = ClientProtocol::kTsp1;
  QueryClient client(options);
  ASSERT_OK(client.Connect(server_->port()));
  const WireReply oversized =
      client.Execute("CURRENT wide" + std::string(1024 * 1024, ' '));
  EXPECT_NE(oversized.outcome, WireOutcome::kOk) << oversized.body;
  EXPECT_TRUE(testing::WaitFor(
      [&] { return server_->Stats().protocol_errors > errors_before; }));
}

TEST_F(CrossProtocolTest, ClientTraceIdJoinsServerSpansOnBothProtocols) {
  StartServer();
  ASSERT_OK(service_
                ->Execute(
                    "CREATE EVENT RELATION xp (sensor INT64 KEY, v DOUBLE) "
                    "GRANULARITY 1s",
                    nullptr)
                .status());
  SpanStore::Instance().Clear();

  for (ClientProtocol protocol :
       {ClientProtocol::kHttp, ClientProtocol::kTsp1}) {
    ClientOptions options;
    options.protocol = protocol;
    QueryClient client(options);
    ASSERT_OK(client.Connect(server_->port()));
    WireReply ok = client.Execute("CURRENT xp");
    ASSERT_EQ(ok.outcome, WireOutcome::kOk) << ok.body;
    const std::string wire_id = client.last_trace_id();
    ASSERT_EQ(wire_id.size(), 32u);

    // The server's request span must be retained under the client's trace
    // id — same join key over both encodings. Retention happens after the
    // response is written, so poll briefly.
    std::string span_json;
    ASSERT_TRUE(testing::WaitFor([&] {
      for (const auto& entry :
           SpanStore::Instance().Entries(SpanReason::kSampled)) {
        if (entry->span.ToJson().find("\"wire_trace\":\"" + wire_id + "\"") !=
            std::string::npos) {
          span_json = entry->span.ToJson();
          return true;
        }
      }
      return false;
    })) << "no retained span carries wire trace " << wire_id;

    // The server-owned span carries the request lifecycle and the transport
    // attribution the slowlog needs.
    const char* expected_protocol =
        protocol == ClientProtocol::kHttp ? "\"protocol\":\"http\""
                                          : "\"protocol\":\"tsp1\"";
    EXPECT_NE(span_json.find(expected_protocol), std::string::npos)
        << span_json;
    EXPECT_NE(span_json.find("\"peer\":\"127.0.0.1:"), std::string::npos)
        << span_json;
    for (const char* stage : {"\"queue.wait\"", "\"execute\"", "\"respond\""}) {
      EXPECT_NE(span_json.find(stage), std::string::npos)
          << stage << " missing from " << span_json;
    }
    client.Close();
  }
}

TEST_F(CrossProtocolTest, MalformedTraceHeaderNeverFailsTheRequest) {
  StartServer();
  ASSERT_OK(service_
                ->Execute(
                    "CREATE EVENT RELATION xp (sensor INT64 KEY, v DOUBLE) "
                    "GRANULARITY 1s",
                    nullptr)
                .status());

  TestClient http(server_->port());
  ASSERT_TRUE(http.connected());
  // A propagated trace id is an optimization, never a contract: every
  // malformed shape executes under a server-generated id instead of a 4xx.
  const std::string malformed[] = {
      "X-Tempspec-Trace: nonsense\r\n",
      "X-Tempspec-Trace: \r\n",
      // 31 hex chars before the dash (one short).
      "X-Tempspec-Trace: 0123456789abcdef0123456789abcde-0011223344556677\r\n",
      // Non-hex characters in the trace id.
      "X-Tempspec-Trace: zzzz456789abcdef0123456789abcdef-0011223344556677\r\n",
      // Missing span half.
      "X-Tempspec-Trace: 0123456789abcdef0123456789abcdef\r\n",
  };
  for (const std::string& header : malformed) {
    TestClient::HttpReply reply = http.PostQuery("CURRENT xp", header);
    ASSERT_TRUE(reply.ok) << header;
    EXPECT_EQ(reply.code, 200) << header << ": " << reply.body;
  }
  // No header at all is equally fine.
  TestClient::HttpReply bare = http.PostQuery("CURRENT xp");
  ASSERT_TRUE(bare.ok);
  EXPECT_EQ(bare.code, 200);

  // A well-formed header on the same raw connection is adopted verbatim.
  SpanStore::Instance().Clear();
  const std::string wire_id = "0123456789abcdef0123456789abcdef";
  TestClient::HttpReply traced = http.PostQuery(
      "CURRENT xp", "X-Tempspec-Trace: " + wire_id + "-0011223344556677\r\n");
  ASSERT_TRUE(traced.ok);
  EXPECT_EQ(traced.code, 200);
  EXPECT_TRUE(testing::WaitFor([&] {
    for (const auto& entry :
           SpanStore::Instance().Entries(SpanReason::kSampled)) {
      if (entry->span.ToJson().find("\"wire_trace\":\"" + wire_id + "\"") !=
          std::string::npos) {
        return true;
      }
    }
    return false;
  }));
}

TEST_F(CrossProtocolTest, TenantDriverRetainsTruncatedServerErrorBodies) {
  StartServer();
  ASSERT_OK(
      service_
          ->Execute(TenantDriver::CreateStatement(Scenario::kAccounting),
                    nullptr)
          .status());

  SimEndpoint endpoint;
  endpoint.port.store(static_cast<int>(server_->port()));
  endpoint.generation.store(1);

  TenantOptions options;
  options.scenario = Scenario::kAccounting;
  options.protocol = ClientProtocol::kHttp;
  options.reads_per_write = 0;  // writes only
  options.think_time_us = 0;
  options.max_ops = 12;
  options.drift_after_ops = 1;  // violate the declared band immediately
  TenantDriver driver(options, &endpoint);
  driver.Run();

  const TenantReport& report = driver.report();
  EXPECT_GT(report.drift_rejections, 0u);
  ASSERT_FALSE(report.error_details.empty());
  EXPECT_LE(report.error_details.size(), TenantReport::kMaxErrorDetails);
  for (const std::string& detail : report.error_details) {
    // "<op> <outcome>: <truncated body>", single-line, bounded.
    EXPECT_EQ(detail.rfind("write client_error: ", 0), 0u) << detail;
    EXPECT_NE(detail.find("Constraint violation"), std::string::npos)
        << detail;
    EXPECT_EQ(detail.find('\n'), std::string::npos) << detail;
    EXPECT_LE(detail.size(),
              TenantReport::kErrorDetailBytes + 32)  // + op/outcome prefix
        << detail;
  }
}

}  // namespace
}  // namespace tempspec
