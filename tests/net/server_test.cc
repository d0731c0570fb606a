// Protocol and policy battery for NetServer (net/server.h), driven over real
// sockets against scripted statement handlers: HTTP and TSP1 frame
// round-trips, keep-alive and pipelining, admission control (503/kRejected),
// deadline propagation and enforcement (504), client-disconnect
// cancellation, and clean rejection of malformed input on both protocols.
#include "net/server.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <string>
#include <thread>

#include "net/event_loop.h"
#include "net/frame.h"
#include "net/net_test_client.h"
#include "testing.h"

namespace tempspec {
namespace {

using namespace std::chrono_literals;
using testing::QueryFrame;
using testing::TestClient;
using testing::WaitFor;

// A server stopped right after Start() calls EventLoop::Stop() before its
// loop thread may have entered Run(); that stop request must not be lost,
// or Stop() waits forever on the loop thread.
TEST(EventLoopTest, StopBeforeRunIsNotLost) {
  EventLoop loop;
  ASSERT_OK(loop.Init());
  loop.Stop();
  std::atomic<bool> returned{false};
  std::thread runner([&] {
    loop.Run();
    returned.store(true);
  });
  const bool ended = WaitFor([&] { return returned.load(); });
  if (!ended) loop.Stop();  // unblock the runner so the test can finish
  runner.join();
  EXPECT_TRUE(ended) << "Run() ignored a Stop() issued before it started";
}

class NetServerTest : public ::testing::Test {
 protected:
  /// Starts a server on an ephemeral port with the given options + handler.
  void StartServer(ServerOptions options, NetServer::StatementHandler handler) {
    options.bind_address = "127.0.0.1";
    options.port = 0;
    server_ = std::make_unique<NetServer>(std::move(options));
    if (handler) server_->SetStatementHandler(std::move(handler));
    ASSERT_OK(server_->Start());
  }

  void TearDown() override {
    if (server_) server_->Stop();
  }

  std::unique_ptr<NetServer> server_;
};

TEST_F(NetServerTest, HttpQueryRoundTrip) {
  StartServer({}, [](const std::string& statement, TraceContext*) {
    return Result<std::string>("echo: " + statement);
  });
  TestClient client(server_->port());
  ASSERT_TRUE(client.connected());
  TestClient::HttpReply reply = client.PostQuery("CURRENT readings");
  ASSERT_TRUE(reply.ok);
  EXPECT_EQ(reply.code, 200);
  EXPECT_EQ(reply.body, "echo: CURRENT readings");
  EXPECT_EQ(server_->Stats().requests, 1u);
}

TEST_F(NetServerTest, KeepAliveServesManyRequestsOnOneConnection) {
  std::atomic<int> calls{0};
  StartServer({}, [&calls](const std::string& statement, TraceContext*) {
    calls.fetch_add(1);
    return Result<std::string>("#" + statement);
  });
  TestClient client(server_->port());
  for (int i = 0; i < 5; ++i) {
    TestClient::HttpReply reply = client.PostQuery(std::to_string(i));
    ASSERT_TRUE(reply.ok) << "request " << i;
    EXPECT_EQ(reply.code, 200);
    EXPECT_EQ(reply.body, "#" + std::to_string(i));
  }
  EXPECT_EQ(calls.load(), 5);
  EXPECT_EQ(server_->Stats().connections_accepted, 1u);
}

TEST_F(NetServerTest, PipelinedHttpRequestsAnswerInOrder) {
  StartServer({}, [](const std::string& statement, TraceContext*) {
    return Result<std::string>("r:" + statement);
  });
  TestClient client(server_->port());
  // Both requests hit the socket before either response is read; the server
  // must serialize per-connection and answer in order.
  std::string two;
  for (const char* payload : {"a", "b"}) {
    two += "POST /query HTTP/1.1\r\nHost: t\r\nContent-Length: 1\r\n\r\n";
    two += payload;
  }
  ASSERT_TRUE(client.Send(two));
  TestClient::HttpReply first = client.ReadHttpResponse();
  TestClient::HttpReply second = client.ReadHttpResponse();
  ASSERT_TRUE(first.ok);
  ASSERT_TRUE(second.ok);
  EXPECT_EQ(first.body, "r:a");
  EXPECT_EQ(second.body, "r:b");
}

TEST_F(NetServerTest, StatementErrorsMapToHttpCodes) {
  StartServer({}, [](const std::string& statement, TraceContext*) {
    if (statement == "missing") {
      return Result<std::string>(Status::NotFound("no such relation"));
    }
    if (statement == "bad") {
      return Result<std::string>(Status::InvalidArgument("parse error"));
    }
    return Result<std::string>(Status::Internal("boom"));
  });
  TestClient client(server_->port());
  EXPECT_EQ(client.PostQuery("missing").code, 404);
  EXPECT_EQ(client.PostQuery("bad").code, 400);
  EXPECT_EQ(client.PostQuery("other").code, 500);
}

TEST_F(NetServerTest, PostToUnknownTargetIs404) {
  StartServer({}, [](const std::string&, TraceContext*) {
    return Result<std::string>("unreachable");
  });
  TestClient client(server_->port());
  ASSERT_TRUE(client.Send(
      "POST /nope HTTP/1.1\r\nHost: t\r\nContent-Length: 1\r\n\r\nx"));
  EXPECT_EQ(client.ReadHttpResponse().code, 404);
}

TEST_F(NetServerTest, QueryWithoutHandlerIs404) {
  StartServer({}, nullptr);
  TestClient client(server_->port());
  EXPECT_EQ(client.PostQuery("CURRENT r").code, 404);
}

TEST_F(NetServerTest, MalformedHttpRejectedAndCounted) {
  StartServer({}, [](const std::string&, TraceContext*) {
    return Result<std::string>("ok");
  });
  TestClient client(server_->port());
  ASSERT_TRUE(client.Send("complete garbage\r\n\r\n"));
  TestClient::HttpReply reply = client.ReadHttpResponse();
  ASSERT_TRUE(reply.ok);
  EXPECT_EQ(reply.code, 400);
  EXPECT_TRUE(WaitFor([&] { return server_->Stats().protocol_errors >= 1; }));

  // A request line that parses but claims an unsupported version is 505.
  TestClient version_client(server_->port());
  ASSERT_TRUE(version_client.Send("GET /metrics HTTP/3.0\r\n\r\n"));
  TestClient::HttpReply version_reply = version_client.ReadHttpResponse();
  ASSERT_TRUE(version_reply.ok);
  EXPECT_EQ(version_reply.code, 505);
}

TEST_F(NetServerTest, FrameQueryAndPingRoundTrip) {
  StartServer({}, [](const std::string& statement, TraceContext*) {
    return Result<std::string>("echo: " + statement);
  });
  TestClient client(server_->port());
  ASSERT_TRUE(client.SendFrame(QueryFrame("TIMESLICE r AT '1992-01-01'")));
  ASSERT_OK_AND_ASSIGN(Frame result, client.ReadFrame());
  EXPECT_EQ(result.type, FrameType::kResult);
  EXPECT_EQ(result.payload, "echo: TIMESLICE r AT '1992-01-01'");

  Frame ping;
  ping.type = FrameType::kPing;
  ping.payload = "liveness";
  ASSERT_TRUE(client.SendFrame(ping));
  ASSERT_OK_AND_ASSIGN(Frame pong, client.ReadFrame());
  EXPECT_EQ(pong.type, FrameType::kPong);
  EXPECT_EQ(pong.payload, "liveness");
}

TEST_F(NetServerTest, FrameStatementErrorCarriesStatusName) {
  StartServer({}, [](const std::string&, TraceContext*) {
    return Result<std::string>(Status::InvalidArgument("parse error at 'x'"));
  });
  TestClient client(server_->port());
  ASSERT_TRUE(client.SendFrame(QueryFrame("garbage")));
  ASSERT_OK_AND_ASSIGN(Frame error, client.ReadFrame());
  EXPECT_EQ(error.type, FrameType::kError);
  EXPECT_NE(error.payload.find("parse error"), std::string::npos)
      << error.payload;
}

TEST_F(NetServerTest, CorruptFrameClosesConnectionAndCounts) {
  StartServer({}, [](const std::string&, TraceContext*) {
    return Result<std::string>("ok");
  });
  TestClient client(server_->port());
  std::string wire;
  EncodeFrame(QueryFrame("x"), &wire);
  wire[12] ^= 0x5A;  // break the CRC
  ASSERT_TRUE(client.Send(wire));
  // The server answers with one kError frame explaining the corruption,
  // then tears the connection down (framing is unrecoverable).
  ASSERT_OK_AND_ASSIGN(Frame error, client.ReadFrame());
  EXPECT_EQ(error.type, FrameType::kError);
  EXPECT_NE(error.payload.find("CRC"), std::string::npos) << error.payload;
  EXPECT_EQ(client.ReadToEof(), "");
  EXPECT_TRUE(WaitFor([&] { return server_->Stats().protocol_errors >= 1; }));
}

TEST_F(NetServerTest, AdmissionControlRejectsExcessLoad) {
  // One permit; the first statement parks in the handler until released, so
  // every concurrent request must be refused up front: HTTP 503 with
  // Retry-After semantics, kRejected on the frame protocol.
  std::mutex mu;
  std::condition_variable cv;
  bool release = false;
  std::atomic<int> entered{0};
  ServerOptions options;
  options.max_inflight = 1;
  options.worker_threads = 2;
  StartServer(options, [&](const std::string&, TraceContext*) {
    entered.fetch_add(1);
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return release; });
    return Result<std::string>("done");
  });

  TestClient blocker(server_->port());
  ASSERT_TRUE(blocker.Send(
      "POST /query HTTP/1.1\r\nHost: t\r\nContent-Length: 4\r\n\r\nslow"));
  ASSERT_TRUE(WaitFor([&] { return entered.load() == 1; }));

  TestClient refused_http(server_->port());
  TestClient::HttpReply reply = refused_http.PostQuery("fast");
  ASSERT_TRUE(reply.ok);
  EXPECT_EQ(reply.code, 503);

  TestClient refused_frame(server_->port());
  ASSERT_TRUE(refused_frame.SendFrame(QueryFrame("fast")));
  ASSERT_OK_AND_ASSIGN(Frame rejection, refused_frame.ReadFrame());
  EXPECT_EQ(rejection.type, FrameType::kRejected);

  EXPECT_GE(server_->Stats().requests_rejected, 2u);
  EXPECT_EQ(entered.load(), 1);  // rejected statements never ran

  {
    std::lock_guard<std::mutex> lock(mu);
    release = true;
  }
  cv.notify_all();
  TestClient::HttpReply unblocked = blocker.ReadHttpResponse();
  ASSERT_TRUE(unblocked.ok);
  EXPECT_EQ(unblocked.code, 200);

  // With the permit back, new statements are admitted again.
  TestClient after(server_->port());
  EXPECT_EQ(after.PostQuery("fast").code, 200);
}

TEST_F(NetServerTest, ClientDeadlineIsArmedOnTheTrace) {
  std::atomic<bool> saw_deadline{false};
  StartServer({}, [&](const std::string&, TraceContext* trace) {
    saw_deadline.store(trace != nullptr && trace->has_deadline());
    return Result<std::string>("ok");
  });
  TestClient client(server_->port());
  EXPECT_EQ(
      client.PostQuery("q", "X-Tempspec-Deadline-Ms: 5000\r\n").code, 200);
  EXPECT_TRUE(saw_deadline.load());

  // Frame-protocol deadline prefix arms the same way.
  saw_deadline.store(false);
  TestClient frame_client(server_->port());
  ASSERT_TRUE(frame_client.SendFrame(
      QueryFrame("q", /*deadline_ms=*/5000, /*with_deadline=*/true)));
  ASSERT_OK_AND_ASSIGN(Frame result, frame_client.ReadFrame());
  EXPECT_EQ(result.type, FrameType::kResult);
  EXPECT_TRUE(saw_deadline.load());
}

TEST_F(NetServerTest, DefaultDeadlineAppliesWhenClientSendsNone) {
  std::atomic<bool> saw_deadline{false};
  ServerOptions options;
  options.default_deadline_ms = 30000;
  StartServer(options, [&](const std::string&, TraceContext* trace) {
    saw_deadline.store(trace != nullptr && trace->has_deadline());
    return Result<std::string>("ok");
  });
  TestClient client(server_->port());
  EXPECT_EQ(client.PostQuery("q").code, 200);
  EXPECT_TRUE(saw_deadline.load());
}

TEST_F(NetServerTest, ExpiredDeadlineCancelsTheStatementMidFlight) {
  // The handler simulates a long scan that polls at morsel boundaries: it
  // runs until the armed deadline fires, then reports DeadlineExceeded —
  // which must reach the HTTP client as 504 and bump the counter. The
  // cooperative loop is bounded so a cancellation bug fails, not hangs.
  StartServer({}, [](const std::string&, TraceContext* trace) {
    for (int morsel = 0; morsel < 20000; ++morsel) {
      if (trace != nullptr && trace->CancellationRequested()) {
        return Result<std::string>(Status::DeadlineExceeded(
            "query cancelled after ", morsel, " morsel(s)"));
      }
      std::this_thread::sleep_for(1ms);
    }
    return Result<std::string>("ran to completion");
  });
  TestClient client(server_->port());
  TestClient::HttpReply reply =
      client.PostQuery("long scan", "X-Tempspec-Deadline-Ms: 50\r\n");
  ASSERT_TRUE(reply.ok);
  EXPECT_EQ(reply.code, 504);
  EXPECT_NE(reply.body.find("cancelled"), std::string::npos) << reply.body;
  EXPECT_EQ(server_->Stats().deadline_exceeded, 1u);
}

TEST_F(NetServerTest, ClientDeadlineIsClampedToServerMax) {
  // max_deadline_ms=50 must override the client's 1-hour deadline: the
  // cancellation still fires within the bounded loop below.
  ServerOptions options;
  options.max_deadline_ms = 50;
  StartServer(options, [](const std::string&, TraceContext* trace) {
    for (int morsel = 0; morsel < 20000; ++morsel) {
      if (trace != nullptr && trace->CancellationRequested()) {
        return Result<std::string>(
            Status::DeadlineExceeded("cancelled at morsel ", morsel));
      }
      std::this_thread::sleep_for(1ms);
    }
    return Result<std::string>("ran to completion");
  });
  TestClient client(server_->port());
  TestClient::HttpReply reply =
      client.PostQuery("long scan", "X-Tempspec-Deadline-Ms: 3600000\r\n");
  ASSERT_TRUE(reply.ok);
  EXPECT_EQ(reply.code, 504);
}

TEST_F(NetServerTest, DisconnectingClientCancelsItsStatement) {
  std::atomic<bool> entered{false};
  std::atomic<bool> cancelled{false};
  StartServer({}, [&](const std::string&, TraceContext* trace) {
    entered.store(true);
    for (int i = 0; i < 20000; ++i) {
      if (trace != nullptr && trace->CancellationRequested()) {
        cancelled.store(true);
        return Result<std::string>(Status::DeadlineExceeded("cancelled"));
      }
      std::this_thread::sleep_for(1ms);
    }
    return Result<std::string>("ran to completion");
  });
  {
    TestClient client(server_->port());
    ASSERT_TRUE(client.Send(
        "POST /query HTTP/1.1\r\nHost: t\r\nContent-Length: 1\r\n\r\nq"));
    ASSERT_TRUE(WaitFor([&] { return entered.load(); }));
  }  // client destructor closes the socket mid-query
  EXPECT_TRUE(WaitFor([&] { return cancelled.load(); }));
}

TEST_F(NetServerTest, TelemetryNeverPassesAdmission) {
  // With the lone permit held by a parked statement, /healthz via a
  // registered handler must still answer: loop-thread endpoints bypass
  // admission by design.
  std::mutex mu;
  std::condition_variable cv;
  bool release = false;
  std::atomic<int> entered{0};

  ServerOptions options;
  options.bind_address = "127.0.0.1";
  options.port = 0;
  options.max_inflight = 1;
  server_ = std::make_unique<NetServer>(std::move(options));
  server_->AddHttpHandler("/healthz",
                          [](const HttpRequest&, NetServer::HttpResponse* out) {
                            out->body = "ok\n";
                          });
  server_->SetStatementHandler([&](const std::string&, TraceContext*) {
    entered.fetch_add(1);
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return release; });
    return Result<std::string>("done");
  });
  ASSERT_OK(server_->Start());

  TestClient blocker(server_->port());
  ASSERT_TRUE(blocker.Send(
      "POST /query HTTP/1.1\r\nHost: t\r\nContent-Length: 1\r\n\r\nq"));
  ASSERT_TRUE(WaitFor([&] { return entered.load() >= 1; }));

  TestClient health(server_->port());
  ASSERT_TRUE(health.Send("GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n"));
  TestClient::HttpReply reply = health.ReadHttpResponse();
  ASSERT_TRUE(reply.ok);
  EXPECT_EQ(reply.code, 200);
  EXPECT_EQ(reply.body, "ok\n");

  {
    std::lock_guard<std::mutex> lock(mu);
    release = true;
  }
  cv.notify_all();
  EXPECT_EQ(blocker.ReadHttpResponse().code, 200);
}

TEST_F(NetServerTest, MaxConnectionsRefusesFurtherAccepts) {
  ServerOptions options;
  options.max_connections = 2;
  StartServer(options, [](const std::string&, TraceContext*) {
    return Result<std::string>("ok");
  });
  TestClient first(server_->port());
  TestClient second(server_->port());
  ASSERT_EQ(first.PostQuery("a").code, 200);  // both fully established
  ASSERT_EQ(second.PostQuery("b").code, 200);

  TestClient third(server_->port());
  // The server accepts then immediately closes; the read sees EOF without
  // any response bytes.
  EXPECT_EQ(third.ReadToEof(), "");
  EXPECT_TRUE(
      WaitFor([&] { return server_->Stats().connections_refused >= 1; }));
}

TEST_F(NetServerTest, StopCancelsParkedStatements) {
  std::atomic<bool> entered{false};
  std::atomic<bool> cancelled{false};
  StartServer({}, [&](const std::string&, TraceContext* trace) {
    entered.store(true);
    for (int i = 0; i < 20000; ++i) {
      if (trace != nullptr && trace->CancellationRequested()) {
        cancelled.store(true);
        return Result<std::string>(Status::DeadlineExceeded("cancelled"));
      }
      std::this_thread::sleep_for(1ms);
    }
    return Result<std::string>("ran to completion");
  });
  TestClient client(server_->port());
  ASSERT_TRUE(client.Send(
      "POST /query HTTP/1.1\r\nHost: t\r\nContent-Length: 1\r\n\r\nq"));
  ASSERT_TRUE(WaitFor([&] { return entered.load(); }));
  server_->Stop();  // must cancel the in-flight statement, not wait 20s
  EXPECT_TRUE(cancelled.load());
}

}  // namespace
}  // namespace tempspec
