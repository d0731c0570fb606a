// Crash harness for the daemon binary itself (tools/tempspec_serve, path
// injected as TEMPSPEC_SERVE_BIN): SIGKILL the server mid-load at seeded
// points and assert that a restart on the same data directory recovers
// every acknowledged insert through the WAL; then die by SIGABRT with
// TEMPSPEC_FLIGHT_DUMP set and assert the fatal-signal flight-recorder dump
// exists and passes tools/check_flight_json.py. This is the only test that
// exercises the shipped binary end to end — process boundary, signals,
// recovery and all.
#include <signal.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include "net/net_test_client.h"
#include "testing.h"

#ifndef TEMPSPEC_SERVE_BIN
#error "build injects TEMPSPEC_SERVE_BIN=$<TARGET_FILE:tempspec_serve>"
#endif
#ifndef TEMPSPEC_TOOLS_DIR
#error "build injects TEMPSPEC_TOOLS_DIR=<source>/tools"
#endif

namespace tempspec {
namespace {

using testing::TestClient;
using testing::WaitFor;

/// One spawned daemon process bound to an ephemeral port.
class ServeProcess {
 public:
  /// Starts tempspec_serve on `data_dir`; extra environment entries are
  /// "KEY=VALUE" strings applied in the child only.
  bool Start(const std::string& data_dir,
             const std::vector<std::string>& extra_env = {}) {
    portfile_ = data_dir + "/.portfile";
    std::remove(portfile_.c_str());
    pid_ = ::fork();
    if (pid_ < 0) return false;
    if (pid_ == 0) {
      for (const std::string& kv : extra_env) {
        const size_t eq = kv.find('=');
        ::setenv(kv.substr(0, eq).c_str(), kv.substr(eq + 1).c_str(), 1);
      }
      const std::string port_arg = "--portfile=" + portfile_;
      const std::string data_arg = "--data-dir=" + data_dir;
      ::execl(TEMPSPEC_SERVE_BIN, TEMPSPEC_SERVE_BIN, "--port=0",
              data_arg.c_str(), port_arg.c_str(), nullptr);
      _exit(127);  // exec failed
    }
    // Parent: wait for the port file (the daemon writes it after binding).
    const bool bound = WaitFor([this] {
      std::ifstream in(portfile_);
      int port = 0;
      return static_cast<bool>(in >> port) && port > 0;
    });
    if (!bound) return false;
    std::ifstream in(portfile_);
    in >> port_;
    return port_ > 0;
  }

  uint16_t port() const { return static_cast<uint16_t>(port_); }
  pid_t pid() const { return pid_; }

  /// Sends `signo` and reaps the child.
  void KillAndReap(int signo) {
    if (pid_ <= 0) return;
    ::kill(pid_, signo);
    int wstatus = 0;
    ::waitpid(pid_, &wstatus, 0);
    pid_ = -1;
  }

  /// Reaps without signalling (the child died on its own).
  int Reap() {
    int wstatus = 0;
    ::waitpid(pid_, &wstatus, 0);
    pid_ = -1;
    return wstatus;
  }

  ~ServeProcess() {
    if (pid_ > 0) KillAndReap(SIGKILL);
  }

 private:
  pid_t pid_ = -1;
  int port_ = 0;
  std::string portfile_;
};

std::string MakeTempDir() {
  char pattern[] = "/tmp/tempspec_crash_XXXXXX";
  const char* dir = ::mkdtemp(pattern);
  return dir == nullptr ? "" : dir;
}

/// Extracts N from a body containing "N element(s)"; -1 when absent.
int ElementCount(const std::string& body) {
  const size_t at = body.find(" element(s)");
  if (at == std::string::npos) return -1;
  size_t start = at;
  while (start > 0 && std::isdigit(static_cast<unsigned char>(body[start - 1]))) {
    --start;
  }
  if (start == at) return -1;
  return std::atoi(body.substr(start, at - start).c_str());
}

std::string InsertStatement(int i) {
  return "INSERT INTO crashed OBJECT 1 VALUES (1, " + std::to_string(i) +
         ".0) VALID AT '1992-02-03 10:00:00'";
}

TEST(ServerCrashTest, SigkillMidLoadRecoversEveryAcknowledgedInsert) {
  // Seeded kill points: the daemon dies the instant the Nth insert is
  // acknowledged. The WAL reaches the kernel (write(2)) before each ack, so
  // SIGKILL — which loses only user-space state — must never lose an acked
  // insert. Each iteration continues on the same data dir, so recovery is
  // also re-entrant: recover, load more, die again, recover again.
  const std::string data_dir = MakeTempDir();
  ASSERT_FALSE(data_dir.empty());

  int acked = 0;
  bool created = false;
  for (const int kill_after : {7, 23, 41}) {
    ServeProcess serve;
    ASSERT_TRUE(serve.Start(data_dir)) << "daemon failed to start";
    TestClient client(serve.port());
    ASSERT_TRUE(client.connected());

    if (!created) {
      TestClient::HttpReply reply = client.PostQuery(
          "CREATE EVENT RELATION crashed (sensor INT64 KEY, v DOUBLE) "
          "GRANULARITY 1s");
      ASSERT_EQ(reply.code, 200) << reply.body;
      created = true;
    } else {
      // The previous kill must not have lost anything that was acked.
      TestClient::HttpReply recovered = client.PostQuery("CURRENT crashed");
      ASSERT_EQ(recovered.code, 200) << recovered.body;
      EXPECT_GE(ElementCount(recovered.body), acked)
          << "recovery lost acknowledged inserts: " << recovered.body;
    }

    for (int i = 0; i < kill_after; ++i) {
      TestClient::HttpReply reply = client.PostQuery(InsertStatement(acked));
      ASSERT_EQ(reply.code, 200) << reply.body;
      ++acked;
    }
    serve.KillAndReap(SIGKILL);
  }

  // Final restart: everything ever acked is present and the daemon is fully
  // operational afterwards (reads and writes).
  ServeProcess serve;
  ASSERT_TRUE(serve.Start(data_dir));
  TestClient client(serve.port());
  TestClient::HttpReply reply = client.PostQuery("CURRENT crashed");
  ASSERT_EQ(reply.code, 200) << reply.body;
  EXPECT_GE(ElementCount(reply.body), acked) << reply.body;
  EXPECT_EQ(client.PostQuery(InsertStatement(acked)).code, 200);
  serve.KillAndReap(SIGTERM);
}

TEST(ServerCrashTest, FatalSignalDumpsFlightRecorderThatValidates) {
  const std::string data_dir = MakeTempDir();
  ASSERT_FALSE(data_dir.empty());
  const std::string dump_path = data_dir + "/flight.jsonl";

  ServeProcess serve;
  ASSERT_TRUE(
      serve.Start(data_dir, {"TEMPSPEC_FLIGHT_DUMP=" + dump_path}));
  TestClient client(serve.port());
  ASSERT_TRUE(client.connected());
  ASSERT_EQ(client
                .PostQuery(
                    "CREATE EVENT RELATION doomed (sensor INT64 KEY, "
                    "v DOUBLE) GRANULARITY 1s")
                .code,
            200);
  for (int i = 0; i < 5; ++i) {
    ASSERT_EQ(client
                  .PostQuery("INSERT INTO doomed OBJECT 1 VALUES (1, " +
                             std::to_string(i) +
                             ".0) VALID AT '1992-02-03 10:00:00'")
                  .code,
              200);
  }

  ::kill(serve.pid(), SIGABRT);
  const int wstatus = serve.Reap();
  // The handler dumps, then re-raises: the process must have died by the
  // original signal, not exited cleanly.
  ASSERT_TRUE(WIFSIGNALED(wstatus));
  EXPECT_EQ(WTERMSIG(wstatus), SIGABRT);

  std::ifstream dump(dump_path);
  ASSERT_TRUE(dump.good()) << "no flight dump at " << dump_path;
  std::string first_line;
  ASSERT_TRUE(static_cast<bool>(std::getline(dump, first_line)));
  EXPECT_NE(first_line.find("\"seq\""), std::string::npos) << first_line;

  // The dump must satisfy the shared JSONL schema — same gate CI applies.
  const std::string check = std::string("python3 ") + TEMPSPEC_TOOLS_DIR +
                            "/check_flight_json.py --min-events 1 " +
                            dump_path;
  EXPECT_EQ(std::system(check.c_str()), 0) << check;
}

/// \brief Runs tempspec_serve with one extra flag and/or environment entry
/// ("KEY=VALUE") and returns its wait status, or -1 when it was still
/// running after 5 s (it accepted the value and started serving).
int ServeExitStatus(const std::string& flag, const std::string& env = "") {
  const pid_t pid = ::fork();
  if (pid < 0) return -1;
  if (pid == 0) {
    if (!env.empty()) {
      const size_t eq = env.find('=');
      ::setenv(env.substr(0, eq).c_str(), env.substr(eq + 1).c_str(), 1);
    }
    if (flag.empty()) {
      ::execl(TEMPSPEC_SERVE_BIN, TEMPSPEC_SERVE_BIN, nullptr);
    } else {
      ::execl(TEMPSPEC_SERVE_BIN, TEMPSPEC_SERVE_BIN, flag.c_str(), nullptr);
    }
    _exit(127);  // exec failed
  }
  int wstatus = 0;
  const bool exited =
      WaitFor([&] { return ::waitpid(pid, &wstatus, WNOHANG) == pid; },
              std::chrono::seconds(5));
  if (exited) return wstatus;
  ::kill(pid, SIGKILL);
  ::waitpid(pid, &wstatus, 0);
  return -1;
}

TEST(ServerCrashTest, MalformedOrOutOfRangeNumbersExitWithUsage) {
  // Each value used to be accepted: 70000 wrapped to port 4464, "7abc"
  // listened on port 7, and -1 became an admission cap of 2^64 - 1.
  for (const char* flag :
       {"--port=70000", "--port=7abc", "--max-inflight=-1"}) {
    SCOPED_TRACE(flag);
    const int wstatus = ServeExitStatus(flag);
    ASSERT_TRUE(wstatus != -1 && WIFEXITED(wstatus)) << "daemon kept running";
    EXPECT_EQ(WEXITSTATUS(wstatus), 2);
  }
  // The environment fallbacks, and the span store's environment-only
  // settings, go through the same parser. A trace capacity of -1 used to
  // abort the daemon (a ring of 2^64 - 1 slots), and "7abc" sampled 1 in 7.
  for (const char* env :
       {"TEMPSPEC_SERVE_MAX_INFLIGHT=-1", "TEMPSPEC_TRACE_CAPACITY=-1",
        "TEMPSPEC_TRACE_SAMPLE=7abc"}) {
    SCOPED_TRACE(env);
    const int wstatus = ServeExitStatus("", env);
    ASSERT_TRUE(wstatus != -1 && WIFEXITED(wstatus)) << "daemon kept running";
    EXPECT_EQ(WEXITSTATUS(wstatus), 2);
  }
}

}  // namespace
}  // namespace tempspec
