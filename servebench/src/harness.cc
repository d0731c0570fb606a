#include "harness.h"

#include <fcntl.h>
#include <signal.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <condition_variable>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <thread>

#include "catalog/query_service.h"
#include "env_stamp.h"

extern char** environ;

namespace servebench {

namespace {

constexpr size_t kMaxErrors = 8;
constexpr uint64_t kSampleEvery = 8;

void NoteError(std::vector<std::string>* errors, const std::string& what,
               const std::string& statement, const tempspec::WireReply& reply) {
  if (errors->size() >= kMaxErrors) return;
  std::string line = what + ": " + statement.substr(0, 120) + " -> " +
                     tempspec::WireOutcomeToString(reply.outcome) + " " +
                     reply.body.substr(0, 160);
  for (char& c : line) {
    if (c == '\n') c = ' ';
  }
  errors->push_back(std::move(line));
}

bool StartsWith(const std::string& s, const std::string& prefix) {
  return s.compare(0, prefix.size(), prefix) == 0;
}

bool EndsWith(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path);
  std::string text((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  return text;
}

tempspec::ClientOptions ClientFor(Protocol protocol, uint16_t port) {
  tempspec::ClientOptions options;
  options.port = port;
  options.protocol = protocol == Protocol::kHttp
                         ? tempspec::ClientProtocol::kHttp
                         : tempspec::ClientProtocol::kTsp1;
  return options;
}

bool ReadReplyOk(const tempspec::WireReply& reply) {
  return reply.ok() && EndsWith(reply.body, " examined\n");
}

uint64_t SampleHash(uint64_t seed, uint64_t connection, uint64_t index) {
  uint64_t x = seed * 0x9e3779b97f4a7c15ULL + connection * 0xbf58476d1ce4e5b9ULL +
               index;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

}  // namespace

int64_t NowNanos() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

ServerProcess::ServerProcess(std::string binary, std::string data_dir,
                             std::string run_dir)
    : binary_(std::move(binary)),
      data_dir_(std::move(data_dir)),
      run_dir_(std::move(run_dir)) {}

ServerProcess::~ServerProcess() { Stop(SIGKILL); }

bool ServerProcess::Start() {
  const std::string portfile = run_dir_ + "/server.port";
  const std::string log = run_dir_ + "/server.log";
  std::remove(portfile.c_str());
  const std::string data_arg = "--data-dir=" + data_dir_;
  const std::string port_arg = "--portfile=" + portfile;
  const std::string workers_arg = "--workers=" + std::to_string(kServerWorkers);
  std::vector<const char*> argv = {binary_.c_str(), "--port=0",
                                   data_arg.c_str(), port_arg.c_str(),
                                   workers_arg.c_str(), "--max-inflight=8",
                                   nullptr};
  // posix_spawn, not fork: the child does not copy this process's page
  // tables, so the spawn cost (part of recovery_s) does not grow with the
  // load generator's own memory.
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_addopen(&actions, STDOUT_FILENO, log.c_str(),
                                   O_WRONLY | O_CREAT | O_APPEND, 0644);
  posix_spawn_file_actions_adddup2(&actions, STDOUT_FILENO, STDERR_FILENO);
  const int spawned =
      ::posix_spawn(&pid_, binary_.c_str(), &actions, nullptr,
                    const_cast<char* const*>(argv.data()), environ);
  posix_spawn_file_actions_destroy(&actions);
  if (spawned != 0) {
    pid_ = -1;
    return false;
  }
  {
    std::ofstream pidfile(run_dir_ + "/server.pid", std::ios::trunc);
    pidfile << pid_ << "\n";
  }
  for (int tries = 0; tries < 50000; ++tries) {
    // The daemon writes "<port>\n"; only a complete line counts.
    const std::string text = ReadFile(portfile);
    const int port = std::atoi(text.c_str());
    if (!text.empty() && text.back() == '\n' && port > 0) {
      port_ = static_cast<uint16_t>(port);
      return true;
    }
    int status = 0;
    if (::waitpid(pid_, &status, WNOHANG) == pid_) {
      pid_ = -1;
      return false;
    }
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  Stop(SIGKILL);
  return false;
}

void ServerProcess::Stop(int signo) {
  if (pid_ <= 0) return;
  ::kill(pid_, signo);
  int status = 0;
  ::waitpid(pid_, &status, 0);
  pid_ = -1;
  port_ = 0;
  std::remove((run_dir_ + "/server.pid").c_str());
}

int64_t ServerProcess::RssBytes() const {
  if (pid_ <= 0) return 0;
  std::ifstream in("/proc/" + std::to_string(pid_) + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (StartsWith(line, "VmRSS:")) {
      return std::strtoll(line.c_str() + 6, nullptr, 10) * 1024;
    }
  }
  return 0;
}

int ServerProcess::ReapStray(const std::string& run_dir) {
  const std::string pidfile = run_dir + "/server.pid";
  std::ifstream in(pidfile);
  pid_t pid = -1;
  if (!(in >> pid) || pid <= 0) return 0;
  std::remove(pidfile.c_str());
  const std::string proc = "/proc/" + std::to_string(pid);
  if (ReadFile(proc + "/comm").rfind("tempspec_serve", 0) != 0) return 0;
  ::kill(pid, SIGKILL);
  for (int i = 0; i < 500 && std::filesystem::exists(proc); ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  return 1;
}

void RequestLedger::Note(const tempspec::WireReply& reply) {
  if (reply.outcome != tempspec::WireOutcome::kTransport &&
      reply.outcome != tempspec::WireOutcome::kRejected) {
    counted.fetch_add(1, std::memory_order_relaxed);
  }
}

SetupResult LoadSetup(const Workload& workload, uint16_t port,
                      RequestLedger* ledger) {
  // Balance relations over two loaders by statement count.
  std::vector<size_t> order(workload.relations.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return workload.setup[a].statements.size() >
           workload.setup[b].statements.size();
  });
  std::vector<size_t> assigned[2];
  size_t load[2] = {0, 0};
  for (size_t r : order) {
    const int to = load[0] <= load[1] ? 0 : 1;
    assigned[to].push_back(r);
    load[to] += workload.setup[r].statements.size();
  }

  SetupResult parts[2];
  auto loader = [&](int which) {
    SetupResult& out = parts[which];
    tempspec::QueryClient client(ClientFor(Protocol::kTsp1, port));
    if (!client.Connect().ok()) {
      out.errors.push_back("set-up: cannot connect");
      return;
    }
    for (size_t r : assigned[which]) {
      const RelationSetup& setup = workload.setup[r];
      const std::vector<GenElement>& elements = workload.gens[r]->elements();
      size_t next_element = 0;
      for (size_t i = 0; i < setup.statements.size(); ++i) {
        const std::string& statement = setup.statements[i];
        const bool refused = std::find(setup.rejected.begin(),
                                       setup.rejected.end(),
                                       i) != setup.rejected.end();
        const int64_t t0 = NowNanos();
        tempspec::WireReply reply = client.Execute(statement);
        const int64_t t1 = NowNanos();
        ledger->Note(reply);
        ++out.statements;
        bool ok;
        if (i == 0) {
          ok = reply.ok() && StartsWith(reply.body, "created relation");
        } else if (refused) {
          ok = reply.outcome == tempspec::WireOutcome::kClientError;
        } else {
          const uint64_t surrogate =
              next_element < elements.size()
                  ? elements[next_element++].surrogate
                  : 0;
          ok = reply.ok() &&
               StartsWith(reply.body,
                          "inserted element " + std::to_string(surrogate) +
                              " ");
          out.write_us.push_back(static_cast<double>(t1 - t0) / 1e3);
        }
        if (!ok) NoteError(&out.errors, "set-up", statement, reply);
      }
    }
  };
  const int64_t start = NowNanos();
  std::thread second(loader, 1);
  loader(0);
  second.join();
  SetupResult result;
  result.seconds = static_cast<double>(NowNanos() - start) / 1e9;
  for (SetupResult& p : parts) {
    result.statements += p.statements;
    result.write_us.insert(result.write_us.end(), p.write_us.begin(),
                           p.write_us.end());
    result.errors.insert(result.errors.end(), p.errors.begin(),
                         p.errors.end());
  }
  return result;
}

void CheckPlans(const Workload& workload, uint16_t port, RequestLedger* ledger,
                std::vector<std::string>* errors) {
  tempspec::QueryClient client(ClientFor(Protocol::kTsp1, port));
  if (!client.Connect().ok()) {
    errors->push_back("plan check: cannot connect");
    return;
  }
  for (size_t r = 0; r < workload.relations.size(); ++r) {
    const RelationSpec& spec = workload.relations[r];
    const GenElement& first = workload.gens[r]->elements().front();
    const std::string explain = "EXPLAIN TIMESLICE " + spec.name + " AT " +
                                TimeLiteral(first.vt_begin);
    tempspec::WireReply reply = client.Execute(explain);
    ledger->Note(reply);
    if (!reply.ok() ||
        reply.body.find("[kernel " + spec.kernel + "]") == std::string::npos) {
      NoteError(errors, "expected kernel " + spec.kernel, explain, reply);
    }
    const std::string show = "SHOW SPECIALIZATION " + spec.name;
    reply = client.Execute(show);
    ledger->Note(reply);
    const bool drifted = reply.body.find("DRIFTED") != std::string::npos;
    if (!reply.ok() || drifted != spec.expect_drifted) {
      NoteError(errors,
                spec.expect_drifted ? "expected DRIFTED" : "expected no drift",
                show, reply);
    }
  }
}

Reference BuildReference(const Workload& workload, uint64_t seed) {
  tempspec::QueryService service;  // in-memory
  Reference ref;
  if (!service.Open().ok()) return ref;
  for (const RelationSetup& setup : workload.setup) {
    for (const std::string& statement : setup.statements) {
      (void)service.Execute(statement, nullptr);
    }
  }
  ref.bodies.resize(workload.connections.size());
  for (size_t c = 0; c < workload.connections.size(); ++c) {
    const std::vector<std::string>& list = workload.connections[c].statements;
    for (uint32_t i = 0; i < list.size(); ++i) {
      if (SampleHash(seed, c, i) % kSampleEvery != 0) continue;
      tempspec::Result<std::string> out = service.Execute(list[i], nullptr);
      ref.bodies[c][i] =
          out.ok() ? out.ValueOrDie() : "error: " + out.status().ToString();
    }
  }
  return ref;
}

MeasuredRun RunMeasured(const Workload& workload, WriteStream* writes,
                        uint16_t port, const Reference& reference,
                        RequestLedger* ledger, const LoopConfig& config) {
  const size_t n = workload.connections.size();
  MeasuredRun run;
  run.connections.resize(n);
  std::mutex mu;
  std::condition_variable cv;
  size_t warmed = 0;
  int64_t start_ns = 0;  // guarded by mu; set once every connection warmed

  auto body = [&](size_t c) {
    const ConnectionPlan& plan = workload.connections[c];
    ConnStats& stats = run.connections[c];
    tempspec::QueryClient client(ClientFor(plan.protocol, port));
    const bool connected = client.Connect().ok();
    if (!connected) stats.errors.push_back("cannot connect");

    // One statement: send, classify, check. Returns the reply latency in
    // microseconds, or a negative value when the statement failed.
    auto execute = [&](uint64_t index, bool measured) -> double {
      std::string statement;
      WriteStream::Write write;
      if (plan.writer) {
        write = writes->Next();
        statement = write.statement;
      } else {
        statement = plan.statements[index % plan.statements.size()];
      }
      const int64_t t0 = NowNanos();
      tempspec::WireReply reply = client.Execute(statement);
      const int64_t t1 = NowNanos();
      ledger->Note(reply);
      bool ok;
      if (plan.writer) {
        const std::string expect =
            (write.is_delete ? "deleted element " : "inserted element ") +
            std::to_string(write.surrogate) + " ";
        ok = reply.ok() && StartsWith(reply.body, expect);
        if (ok) {
          ++(write.is_delete ? stats.acked_deletes
                             : stats.acked_inserts)[write.relation];
        }
        if (config.record_writes) {
          stats.writes.push_back({statement, write.is_delete});
        }
      } else {
        ok = ReadReplyOk(reply);
        if (ok && index < plan.statements.size()) {
          auto it = reference.bodies[c].find(static_cast<uint32_t>(index));
          if (it != reference.bodies[c].end()) {
            if (measured) ++stats.compared;
            ok = reply.body == it->second;
          }
        }
      }
      if (measured && config.record_spans) {
        ClientSpan span;
        span.wire_trace = client.last_trace_id();
        span.start_ns = t0;
        span.end_ns = t1;
        span.statement = static_cast<uint32_t>(
            plan.writer ? stats.writes.size() - 1
                        : index % plan.statements.size());
        span.write = plan.writer;
        span.reply_bytes = static_cast<uint32_t>(reply.body.size());
        stats.spans.push_back(std::move(span));
      }
      stats.last_end_ns = t1;
      if (!ok) {
        NoteError(&stats.errors, measured ? "measured" : "warm-up", statement,
                  reply);
        return -1;
      }
      return static_cast<double>(t1 - t0) / 1e3;
    };

    uint64_t warm_failures = 0;
    for (uint64_t i = 0; connected && i < workload.warmup_statements; ++i) {
      if (execute(i, false) < 0) ++warm_failures;
    }
    int64_t start;
    {
      std::unique_lock<std::mutex> lock(mu);
      if (++warmed == n) {
        if (config.on_warmed) config.on_warmed();
        start_ns = NowNanos();
        cv.notify_all();
      }
      cv.wait(lock, [&] { return start_ns != 0; });
      start = start_ns;
    }
    stats.failed += warm_failures;
    const int64_t deadline =
        start + static_cast<int64_t>(config.seconds * 1e9);
    for (uint64_t i = 0; connected && NowNanos() < deadline; ++i) {
      ++stats.attempted;
      const double us = execute(i, true);
      if (us < 0) {
        ++stats.failed;
      } else {
        (plan.writer ? stats.write_us : stats.read_us).push_back(us);
        stats.done_ns.push_back(stats.last_end_ns);
      }
    }
    if (!connected) stats.failed = stats.attempted = 1;
  };

  std::vector<std::thread> threads;
  for (size_t c = 1; c < n; ++c) threads.emplace_back(body, c);
  body(0);
  for (std::thread& t : threads) t.join();
  int64_t end = start_ns;
  for (const ConnStats& s : run.connections) end = std::max(end, s.last_end_ns);
  run.start_ns = start_ns;
  run.elapsed_s = static_cast<double>(end - start_ns) / 1e9;
  run.warmup_statements = workload.warmup_statements * n;
  return run;
}

namespace {

CpuTimes StealSnapshot() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  CpuTimes t;
  in >> cpu;
  for (int field = 0; field < 10; ++field) {
    uint64_t v = 0;
    if (!(in >> v)) break;
    // user nice system idle iowait irq softirq steal guest guest_nice;
    // guest time is already counted in user.
    if (field < 8) t.total += v;
    if (field == 7) t.steal = v;
  }
  return t;
}

}  // namespace

StealSampler::StealSampler()
    : thread_([this] {
        while (!stop_.load(std::memory_order_relaxed)) {
          const std::pair<int64_t, CpuTimes> sample(NowNanos(), StealSnapshot());
          {
            std::lock_guard<std::mutex> lock(mu_);
            samples_.push_back(sample);
          }
          std::this_thread::sleep_for(std::chrono::milliseconds(50));
        }
      }) {}

StealSampler::~StealSampler() {
  stop_.store(true, std::memory_order_relaxed);
  thread_.join();
}

double StealSampler::ShareBetween(int64_t from_ns, int64_t to_ns) const {
  std::lock_guard<std::mutex> lock(mu_);
  if (samples_.empty()) return 0;
  auto nearest = [&](int64_t t) {
    auto it = std::lower_bound(
        samples_.begin(), samples_.end(), t,
        [](const std::pair<int64_t, CpuTimes>& s, int64_t v) {
          return s.first < v;
        });
    if (it == samples_.end()) return samples_.back().second;
    return it->second;
  };
  const CpuTimes a = nearest(from_ns);
  const CpuTimes b = nearest(to_ns);
  return b.total <= a.total ? 0
                            : static_cast<double>(b.steal - a.steal) /
                                  static_cast<double>(b.total - a.total);
}

int64_t ElementCount(const std::string& body) {
  const size_t at = body.find(" element(s)");
  if (at == std::string::npos) return -1;
  size_t start = at;
  while (start > 0 && body[start - 1] >= '0' && body[start - 1] <= '9') {
    --start;
  }
  if (start == at) return -1;
  return std::strtoll(body.c_str() + start, nullptr, 10);
}

int64_t DirectoryBytes(const std::string& dir) {
  int64_t total = 0;
  std::error_code ec;
  for (auto it = std::filesystem::recursive_directory_iterator(dir, ec);
       !ec && it != std::filesystem::recursive_directory_iterator();
       it.increment(ec)) {
    if (it->is_regular_file(ec)) {
      total += static_cast<int64_t>(it->file_size(ec));
    }
  }
  return total;
}

}  // namespace servebench
