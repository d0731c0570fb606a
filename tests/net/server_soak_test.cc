// Multi-client concurrency soak for the full network stack: N client
// threads drive a real QueryService-backed NetServer with a mixed
// read/write/SHOW workload over both protocols (HTTP keep-alive and TSP1
// frames), with admission-control rejections retried like a production
// client would. Afterwards the relation's state must match a serial shadow
// run of the same logical workload — the single-writer contract and the
// per-connection serialization must hold under contention. Runs under TSan
// in CI (ctest -L server on the -DTEMPSPEC_SANITIZE=thread tree) to
// race-check the leader/followers pool's leadership transfers and the
// replies written by the thread that ran the statement.
#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "catalog/query_service.h"
#include "net/net_test_client.h"
#include "net/server.h"
#include "testing.h"

namespace tempspec {
namespace {

using testing::TestClient;

constexpr int kClients = 4;
constexpr int kOpsPerClient = 30;

std::string InsertStatement(int client, int op) {
  // Distinct object per client; distinct value + second per op, so every
  // insert is identifiable and the final state is order-independent.
  return "INSERT INTO soak OBJECT " + std::to_string(client + 1) +
         " VALUES (" + std::to_string(client + 1) + ", " +
         std::to_string(client * 1000 + op) + ".0) VALID AT '1992-02-03 10:" +
         (op < 10 ? "0" : "") + std::to_string(op % 60) + ":00'";
}

/// The deterministic logical workload for one client: op i is a write when
/// i % 3 == 0, a SHOW when i % 7 == 0, otherwise a read.
enum class OpKind { kInsert, kShow, kRead };
OpKind KindOf(int op) {
  if (op % 3 == 0) return OpKind::kInsert;
  if (op % 7 == 0) return OpKind::kShow;
  return OpKind::kRead;
}

class ServerSoakTest : public ::testing::Test {
 protected:
  void StartServer() {
    service_ = std::make_unique<QueryService>(QueryServiceOptions{});
    ASSERT_OK(service_->Open());
    ASSERT_OK(service_
                  ->Execute(
                      "CREATE EVENT RELATION soak (sensor INT64 KEY, "
                      "v DOUBLE) GRANULARITY 1s",
                      nullptr)
                  .status());
    ServerOptions options;
    options.bind_address = "127.0.0.1";
    options.port = 0;
    options.max_inflight = 4;  // low enough that rejections actually happen
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

TEST_F(ServerSoakTest, ConcurrentMixedWorkloadMatchesSerialShadow) {
  StartServer();
  std::atomic<int> reads_served{0};
  std::atomic<int> shows_served{0};
  std::atomic<int> rejections_retried{0};
  std::atomic<int> failures{0};

  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      const bool frames = (c % 2 == 1);  // half HTTP, half binary protocol
      TestClient client(server_->port());
      if (!client.connected()) {
        failures.fetch_add(1);
        return;
      }
      for (int op = 0; op < kOpsPerClient; ++op) {
        std::string statement;
        switch (KindOf(op)) {
          case OpKind::kInsert:
            statement = InsertStatement(c, op);
            break;
          case OpKind::kShow:
            statement = "SHOW SPECIALIZATION soak";
            break;
          case OpKind::kRead:
            statement = "CURRENT soak";
            break;
        }
        // Retry admission rejections (503 / kRejected) with a short backoff;
        // anything else unexpected is a failure.
        const testing::ExecReply reply =
            testing::ExecuteStatement(client, statement, frames);
        rejections_retried.fetch_add(reply.rejections);
        if (!reply.transport_ok) {
          ADD_FAILURE() << "statement '" << statement
                        << "' got no definitive reply (rejected "
                        << reply.rejections << " time(s))";
          failures.fetch_add(1);
          return;
        }
        if (!reply.accepted) {
          ADD_FAILURE() << "statement '" << statement << "' answered "
                        << reply.code << ": " << reply.body;
          failures.fetch_add(1);
          return;
        }
        if (KindOf(op) == OpKind::kRead) reads_served.fetch_add(1);
        if (KindOf(op) == OpKind::kShow) shows_served.fetch_add(1);
      }
    });
  }
  for (std::thread& t : clients) t.join();
  ASSERT_EQ(failures.load(), 0);

  // Serial shadow: the same logical writes against a fresh service. The
  // interleaving differs, the final relation state must not.
  QueryService shadow{QueryServiceOptions{}};
  ASSERT_OK(shadow.Open());
  ASSERT_OK(shadow
                .Execute(
                    "CREATE EVENT RELATION soak (sensor INT64 KEY, "
                    "v DOUBLE) GRANULARITY 1s",
                    nullptr)
                .status());
  int shadow_inserts = 0;
  for (int c = 0; c < kClients; ++c) {
    for (int op = 0; op < kOpsPerClient; ++op) {
      if (KindOf(op) != OpKind::kInsert) continue;
      ASSERT_OK(shadow.Execute(InsertStatement(c, op), nullptr).status());
      ++shadow_inserts;
    }
  }

  ASSERT_OK_AND_ASSIGN(std::string concurrent_state,
                       service_->Execute("CURRENT soak", nullptr));
  ASSERT_OK_AND_ASSIGN(std::string shadow_state,
                       shadow.Execute("CURRENT soak", nullptr));
  const std::string want =
      std::to_string(shadow_inserts) + " element(s)";
  EXPECT_NE(concurrent_state.find(want), std::string::npos)
      << "concurrent run diverged from the serial shadow:\n"
      << concurrent_state;
  EXPECT_NE(shadow_state.find(want), std::string::npos) << shadow_state;

  // Every read and SHOW was actually served, and the counters reconcile:
  // admitted = one per completed statement (retries only ever follow a
  // rejection, which is counted separately, not admitted).
  EXPECT_EQ(reads_served.load() + shows_served.load(),
            kClients * kOpsPerClient - shadow_inserts);
  const ServerStats stats = server_->Stats();
  EXPECT_EQ(stats.requests, static_cast<uint64_t>(kClients * kOpsPerClient));
  EXPECT_EQ(stats.requests_rejected,
            static_cast<uint64_t>(rejections_retried.load()));
  EXPECT_EQ(stats.protocol_errors, 0u);
}

TEST_F(ServerSoakTest, ManyShortLivedConnections) {
  // Connection churn: every request on a fresh socket, exercising
  // accept/close paths concurrently with execution.
  StartServer();
  std::atomic<int> failures{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      for (int op = 0; op < 10; ++op) {
        TestClient client(server_->port());
        const testing::ExecReply reply = testing::ExecuteStatement(
            client,
            op % 2 == 0 ? InsertStatement(c, op + 100) : "CURRENT soak",
            /*frames=*/false);
        if (!reply.accepted) failures.fetch_add(1);
      }
    });
  }
  for (std::thread& t : clients) t.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_GE(server_->Stats().connections_accepted,
            static_cast<uint64_t>(kClients * 10));
}

}  // namespace
}  // namespace tempspec
