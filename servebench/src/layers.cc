#include "layers.h"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <memory>
#include <mutex>
#include <unordered_map>

#include "catalog/query_lang.h"
#include "catalog/query_service.h"
#include "env_stamp.h"
#include "harness.h"
#include "lang/ddl.h"
#include "net/server.h"
#include "net/telemetry_endpoints.h"
#include "obs/build_info.h"
#include "obs/metrics.h"
#include "obs/slowlog.h"
#include "obs/trace.h"
#include "query/executor.h"
#include "storage/backlog.h"
#include "timex/calendar.h"

namespace servebench {

namespace {

using tempspec::TimePoint;

// Replays per run: reads re-executed layer by layer, and inserts replayed
// into the relation and storage layers.
constexpr size_t kReadReplays = 4000;
constexpr size_t kInsertReplays = 20000;
constexpr int64_t kReplayBudgetNs = 4000000000;
// The stated tolerance: the per-layer p50s must sum to the round-trip p50
// within this share.
constexpr double kBudgetTolerance = 0.25;

const char* const kKernelTokens[] = {
    "row_at_a_time",   "generic_columnar",  "degenerate_columnar",
    "banded_columnar", "monotone_columnar", "existence_columnar"};

double Micros(int64_t ns) { return static_cast<double>(ns) / 1e3; }

/// One span: a name, start, end, parent (index, -1 for a root) and the
/// request it belongs to. Live spans carry wall-clock intervals; replayed
/// spans carry the duration of the replayed call, placed at its start.
struct Span {
  std::string name;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int64_t parent = -1;
  uint64_t request = 0;
};

class SpanLog {
 public:
  int64_t Add(std::string name, int64_t start, int64_t end, int64_t parent,
              uint64_t request) {
    spans_.push_back({std::move(name), start, end, parent, request});
    return static_cast<int64_t>(spans_.size()) - 1;
  }
  void WriteJsonl(const std::string& path) const {
    std::ofstream out(path, std::ios::trunc);
    for (const Span& s : spans_) {
      out << "{\"name\": " << JsonString(s.name) << ", \"start_ns\": "
          << s.start_ns << ", \"end_ns\": " << s.end_ns
          << ", \"parent\": " << s.parent << ", \"request\": " << s.request
          << "}\n";
    }
  }

 private:
  std::vector<Span> spans_;
};

/// Server-side handler spans, keyed by the client's wire trace id.
class HandlerSpans {
 public:
  void Record(const std::string& trace, int64_t start, int64_t end) {
    if (!on_.load(std::memory_order_relaxed) || trace.empty()) return;
    std::lock_guard<std::mutex> lock(mu_);
    spans_[trace] = {start, end};
  }
  void SetRecording(bool on) { on_.store(on, std::memory_order_relaxed); }
  const std::pair<int64_t, int64_t>* Find(const std::string& trace) const {
    auto it = spans_.find(trace);
    return it == spans_.end() ? nullptr : &it->second;
  }

 private:
  std::atomic<bool> on_{false};
  std::mutex mu_;
  std::unordered_map<std::string, std::pair<int64_t, int64_t>> spans_;
};

/// Statement tokens: words, single-quoted literals (quotes stripped) and
/// the punctuation ( ) , as tokens of their own.
std::vector<std::string> Tokens(const std::string& s) {
  std::vector<std::string> out;
  for (size_t i = 0; i < s.size();) {
    const char c = s[i];
    if (c == ' ') {
      ++i;
    } else if (c == '\'') {
      const size_t end = s.find('\'', i + 1);
      out.push_back(s.substr(i + 1, end - i - 1));
      i = end == std::string::npos ? s.size() : end + 1;
    } else if (c == '(' || c == ')' || c == ',') {
      out.push_back(std::string(1, c));
      ++i;
    } else {
      size_t end = i;
      while (end < s.size() && s[end] != ' ' && s[end] != '(' &&
             s[end] != ')' && s[end] != ',') {
        ++end;
      }
      out.push_back(s.substr(i, end - i));
      i = end;
    }
  }
  return out;
}

TimePoint Time(const std::string& literal) {
  tempspec::Result<TimePoint> tp = tempspec::ParseTimePoint(literal);
  return tp.ok() ? tp.ValueOrDie() : TimePoint::FromMicros(0);
}

/// One read re-executed through the public calls of each layer.
struct ReadReplay {
  bool ok = false;
  int64_t plan_ns = 0;
  int64_t scan_ns = 0;
  int64_t materialize_ns = 0;
  int64_t render_ns = 0;
  int64_t execute_ns = 0;  // QueryService::Execute with no writer running
  int64_t probe_ns = -1;   // valid-index plans only
  size_t probe_positions = 0;
  int64_t record_ns = 0;
  int64_t to_json_ns = 0;
};

template <typename F>
int64_t Timed(F&& f) {
  const int64_t t0 = NowNanos();
  f();
  return NowNanos() - t0;
}

/// Fastest of three calls: the replayed layer's own cost with warm caches,
/// so that differences such as materialize = adapter - scan are not
/// dominated by one slow repetition.
template <typename F>
int64_t MinTimed(F&& f) {
  int64_t best = Timed(f);
  for (int i = 0; i < 2; ++i) best = std::min(best, Timed(f));
  return best;
}

ReadReplay ReplayRead(tempspec::QueryService& service,
                      const std::string& statement,
                      tempspec::SlowQueryLog& slowlog,
                      tempspec::RetainedTraces& retained) {
  ReadReplay r;
  const std::vector<std::string> t = Tokens(statement);
  if (t.size() < 2) return r;
  tempspec::Result<tempspec::TemporalRelation*> found =
      service.catalog().Get(t[1]);
  if (!found.ok()) return r;
  const tempspec::TemporalRelation& rel = *found.ValueOrDie();
  tempspec::QueryExecutor exec(rel);
  tempspec::PlanChoice plan;
  bool planned = false;
  int64_t adapter_ns = 0;
  TimePoint lo;
  TimePoint hi;
  if (t[0] == "TIMESLICE" && t.size() >= 4) {
    const TimePoint vt = Time(t[3]);
    lo = vt;
    hi = TimePoint::FromMicros(vt.micros() + 1);
    r.plan_ns = MinTimed([&] { plan = exec.optimizer().PlanTimeslice(vt); });
    planned = true;
    if (t.size() >= 7) {  // ... AS OF 'tt': the as-of scan plans itself
      const TimePoint tt = Time(t[6]);
      r.scan_ns = MinTimed([&] { (void)exec.TimesliceAsOfSet(vt, tt); });
      adapter_ns = MinTimed([&] { (void)exec.TimesliceAsOf(vt, tt); });
    } else {
      r.scan_ns = MinTimed([&] { (void)exec.TimesliceSetWith(plan, vt); });
      adapter_ns = MinTimed([&] { (void)exec.TimesliceWith(plan, vt); });
    }
  } else if (t[0] == "RANGE" && t.size() >= 6) {
    lo = Time(t[3]);
    hi = Time(t[5]);
    r.plan_ns = MinTimed([&] { plan = exec.optimizer().PlanValidRange(lo, hi); });
    planned = true;
    r.scan_ns = MinTimed([&] { (void)exec.ValidRangeSetWith(plan, lo, hi); });
    adapter_ns = MinTimed([&] { (void)exec.ValidRangeWith(plan, lo, hi); });
  } else if (t[0] == "CURRENT") {
    r.scan_ns = MinTimed([&] { (void)exec.CurrentSet(); });
    adapter_ns = MinTimed([&] { (void)exec.Current(); });
  } else if (t[0] == "ROLLBACK" && t.size() >= 4) {
    const TimePoint tt = Time(t[3]);
    r.scan_ns = MinTimed([&] { (void)exec.RollbackSet(tt); });
    adapter_ns = MinTimed([&] { (void)exec.Rollback(tt); });
  } else {
    return r;
  }
  r.materialize_ns = adapter_ns - r.scan_ns;
  if (planned && plan.strategy == tempspec::ExecutionStrategy::kValidIndex) {
    std::vector<uint64_t> positions;
    r.probe_ns = Timed([&] {
      positions = hi.micros() - lo.micros() == 1
                      ? rel.valid_index().Stab(lo)
                      : rel.valid_index().Overlapping(lo, hi);
    });
    r.probe_positions = positions.size();
  }
  // Render: the statement's QueryOutput turned into the reply text.
  tempspec::Result<tempspec::QueryOutput> out =
      tempspec::ExecuteQuery(service.catalog(), statement);
  if (!out.ok()) return r;
  std::string text;
  r.render_ns = Timed([&] { text = out.ValueOrDie().ToString(); });
  r.execute_ns =
      Timed([&] { (void)service.Execute(statement, /*trace=*/nullptr); });
  // Obs: a server-shaped request span, recorded the way the server records
  // every request (slow-query log + retained-trace ring), and serialized.
  tempspec::TraceContext span;
  span.SetServerOwned(true);
  span.Begin("server.request");
  span.SetAttr("protocol", "tsp1");
  (void)tempspec::ExecuteQuery(service.catalog(), statement, &span);
  span.AddStage("queue.wait", 1);
  span.AddStage("execute", 1);
  r.record_ns = Timed([&] {
    slowlog.Record(span, statement);
    retained.Record(span);
  });
  r.to_json_ns = Timed([&] { (void)span.ToJson(); });
  r.ok = true;
  return r;
}

/// Write-path latencies: TemporalRelation::Insert on in-memory relations
/// with the same declarations, and BacklogStore::Append of each inserted
/// element on a durable scratch store.
struct InsertReplays {
  std::vector<double> insert_us;
  std::vector<double> append_us;
};

/// Replays `writes` (INSERT and DELETE statements, in the order the server
/// executed them per relation, so every stamp lands where it did live).
/// Only the inserts are timed.
InsertReplays ReplayWrites(const Workload& workload,
                           const std::vector<std::string>& writes,
                           const std::string& store_dir) {
  InsertReplays out;
  std::unordered_map<std::string, std::unique_ptr<tempspec::TemporalRelation>>
      relations;
  for (const RelationSpec& spec : workload.relations) {
    tempspec::Result<tempspec::ParsedRelation> parsed =
        tempspec::ParseCreateRelation(CreateStatement(spec.app, spec.name));
    if (!parsed.ok()) continue;
    tempspec::RelationOptions options;
    options.schema = parsed.ValueOrDie().schema;
    options.specializations = parsed.ValueOrDie().specializations;
    auto opened = tempspec::TemporalRelation::Open(std::move(options));
    if (opened.ok()) relations[spec.name] = std::move(opened).ValueOrDie();
  }
  std::filesystem::remove_all(store_dir);
  std::filesystem::create_directories(store_dir);
  tempspec::BacklogStore::Options store_options;
  store_options.directory = store_dir;
  auto store = tempspec::BacklogStore::Open(store_options);
  for (const std::string& statement : writes) {
    // INSERT INTO r OBJECT n VALUES ( a , b ) VALID AT t | FROM t TO t
    // DELETE FROM r WHERE ID n
    const std::vector<std::string> t = Tokens(statement);
    if (t.size() < 6) continue;
    auto it = relations.find(t[2]);
    if (it == relations.end()) continue;
    tempspec::TemporalRelation& rel = *it->second;
    if (t[0] == "DELETE") {
      (void)rel.LogicalDelete(std::stoull(t[5]));
      continue;
    }
    if (t.size() < 14) continue;
    std::vector<tempspec::Value> values;
    for (size_t i = 0; i < rel.schema().num_attributes(); ++i) {
      const std::string& v = t[7 + 2 * i];
      switch (rel.schema().attribute(i).type) {
        case tempspec::ValueType::kInt64:
          values.emplace_back(static_cast<int64_t>(std::stoll(v)));
          break;
        case tempspec::ValueType::kDouble:
          values.emplace_back(std::stod(v));
          break;
        default:
          values.emplace_back(v);
      }
    }
    const size_t valid = 7 + 2 * rel.schema().num_attributes();
    tempspec::ValidTime vt =
        t[valid + 1] == "AT"
            ? tempspec::ValidTime::Event(Time(t[valid + 2]))
            : tempspec::ValidTime::IntervalUnchecked(Time(t[valid + 2]),
                                                     Time(t[valid + 4]));
    const uint64_t object = std::stoull(t[4]);
    tempspec::Tuple tuple(std::move(values));
    bool inserted = false;
    const int64_t ns = Timed([&] {
      inserted = rel.Insert(object, vt, std::move(tuple)).ok();
    });
    if (!inserted) continue;
    out.insert_us.push_back(Micros(ns));
    if (store.ok()) {
      tempspec::BacklogEntry entry;
      entry.op = tempspec::BacklogOpType::kInsert;
      entry.element = rel.elements().back();
      entry.tt = entry.element.tt_begin;
      out.append_us.push_back(Micros(
          Timed([&] { (void)store.ValueOrDie()->Append(entry); })));
    }
  }
  return out;
}

std::map<std::string, uint64_t> CountersNow() {
  return tempspec::MetricsRegistry::Instance().Scrape().counters;
}

uint64_t Diff(const std::map<std::string, uint64_t>& after,
              const std::map<std::string, uint64_t>& before,
              const std::string& name) {
  auto a = after.find(name);
  auto b = before.find(name);
  const uint64_t av = a == after.end() ? 0 : a->second;
  const uint64_t bv = b == before.end() ? 0 : b->second;
  return av - bv;
}

double OpsPerSecond(const MeasuredRun& run) {
  uint64_t ok = 0;
  for (const ConnStats& c : run.connections) {
    ok += c.read_us.size() + c.write_us.size();
  }
  return run.elapsed_s > 0 ? static_cast<double>(ok) / run.elapsed_s : 0;
}

}  // namespace

RunOutcome RunTraced(const RunOptions& options, Workload& workload) {
  RunOutcome out;
  const std::string data_dir = options.run_dir + "/data";
  std::filesystem::remove_all(data_dir);
  std::filesystem::create_directories(data_dir);

  // The engine hosted the way tempspec_serve hosts it, behind the
  // benchmark's own statement handler.
  tempspec::QueryServiceOptions service_options;
  service_options.data_dir = data_dir;
  tempspec::QueryService service(service_options);
  if (!service.Open().ok()) {
    out.errors.push_back("cannot open " + data_dir);
    return out;
  }
  HandlerSpans handler_spans;
  tempspec::ServerOptions server_options;
  server_options.worker_threads = kServerWorkers;
  tempspec::NetServer server(server_options);
  tempspec::RegisterTelemetryEndpoints(&server);
  server.SetStatementHandler([&](const std::string& statement,
                                 tempspec::TraceContext* trace) {
    const int64_t t0 = NowNanos();
    tempspec::Result<std::string> result = service.Execute(statement, trace);
    handler_spans.Record(trace->WireTraceId(), t0, NowNanos());
    return result;
  });
  if (!server.Start().ok()) {
    out.errors.push_back("cannot start the in-process server");
    return out;
  }
  out.stamp = EnvStampJson(tempspec::BuildConfigJson(), data_dir);

  RequestLedger ledger;
  const SetupResult setup = LoadSetup(workload, server.port(), &ledger);
  out.errors = setup.errors;
  out.attempted += setup.statements;
  out.failed += setup.errors.size();
  CheckPlans(workload, server.port(), &ledger, &out.errors);

  const Reference reference = BuildReference(workload, options.seed);
  std::vector<RelationGen*> written;
  for (size_t r : workload.written) written.push_back(workload.gens[r].get());
  WriteStream writes(written, workload.delete_percent, options.seed);

  // Untraced, then traced, each for half the run.
  LoopConfig config;
  config.seconds = options.seconds / 2;
  config.record_writes = true;
  const MeasuredRun untraced = RunMeasured(workload, &writes, server.port(),
                                           reference, &ledger, config);
  const auto before = CountersNow();
  const uint64_t rejected_before = server.Stats().requests_rejected;
  handler_spans.SetRecording(true);
  config.record_spans = true;
  const MeasuredRun traced = RunMeasured(workload, &writes, server.port(),
                                         reference, &ledger, config);
  handler_spans.SetRecording(false);
  const auto after = CountersNow();
  const uint64_t rejected = server.Stats().requests_rejected - rejected_before;
  for (const MeasuredRun* run : {&untraced, &traced}) {
    for (const ConnStats& c : run->connections) {
      out.attempted += c.attempted + workload.warmup_statements;
      out.failed += c.failed;
      out.errors.insert(out.errors.end(), c.errors.begin(), c.errors.end());
    }
  }
  server.Stop();

  int64_t inserted = 0;
  for (const auto& gen : workload.gens) {
    inserted += static_cast<int64_t>(gen->elements().size());
  }
  const double wal_bytes = static_cast<double>(
      CountersNow()["storage.wal.bytes_appended"]);

  // Live spans: the client round trip and, inside it, the handler
  // (QueryService::Execute) the server ran for it.
  SpanLog log;
  tempspec::SlowQueryLog slowlog;
  tempspec::RetainedTraces retained;
  std::vector<double> net_self_us, execute_us, read_execute_us, reply_bytes;
  std::vector<double> plan_us, scan_us, materialize_us, render_us;
  std::vector<double> replay_execute_us, probe_us, record_us, to_json_us;
  std::vector<double> unattributed_us, round_trip_us;
  double probe_positions = 0;
  uint64_t request = 0;
  size_t read_replays = 0;
  size_t traced_reads = 0;
  for (const ConnStats& c : traced.connections) {
    for (const ClientSpan& cs : c.spans) traced_reads += cs.write ? 0 : 1;
  }
  // Replay a spread sample of the reads, within a time budget (a bulk read
  // costs milliseconds per replayed layer).
  const size_t stride = std::max<size_t>(1, traced_reads / kReadReplays);
  const int64_t replay_deadline = NowNanos() + kReplayBudgetNs;
  size_t read_index = 0;
  for (size_t ci = 0; ci < traced.connections.size(); ++ci) {
    const ConnStats& c = traced.connections[ci];
    const ConnectionPlan& plan = workload.connections[ci];
    for (const ClientSpan& cs : c.spans) {
      const auto* handler = handler_spans.Find(cs.wire_trace);
      if (handler == nullptr) continue;
      ++request;
      const int64_t round_trip = cs.end_ns - cs.start_ns;
      const int64_t handler_ns = handler->second - handler->first;
      const int64_t root =
          log.Add("client.execute", cs.start_ns, cs.end_ns, -1, request);
      const int64_t exec = log.Add("catalog.execute", handler->first,
                                   handler->second, root, request);
      execute_us.push_back(Micros(handler_ns));
      reply_bytes.push_back(cs.reply_bytes);
      if (cs.write) continue;
      read_execute_us.push_back(Micros(handler_ns));
      if (read_index++ % stride != 0 || read_replays >= kReadReplays ||
          NowNanos() > replay_deadline) {
        continue;
      }
      const ReadReplay r =
          ReplayRead(service, plan.statements[cs.statement], slowlog, retained);
      if (!r.ok) continue;
      ++read_replays;
      // Replayed calls become child spans placed back to back from the
      // start of the interval they account for.
      int64_t at = handler->first;
      auto child = [&](const char* name, int64_t ns, int64_t parent) {
        log.Add(name, at, at + ns, parent, request);
        at += std::max<int64_t>(ns, 0);
      };
      child("query.plan", r.plan_ns, exec);
      child("query.scan", r.scan_ns, exec);
      child("query.materialize", r.materialize_ns, exec);
      child("catalog.render", r.render_ns, exec);
      at = handler->second;
      child("obs.record", r.record_ns, root);
      if (r.probe_ns >= 0) {
        probe_us.push_back(Micros(r.probe_ns));
        probe_positions += static_cast<double>(r.probe_positions);
      }
      plan_us.push_back(Micros(r.plan_ns));
      scan_us.push_back(Micros(r.scan_ns));
      materialize_us.push_back(Micros(r.materialize_ns));
      render_us.push_back(Micros(r.render_ns));
      replay_execute_us.push_back(Micros(r.execute_ns));
      record_us.push_back(Micros(r.record_ns));
      to_json_us.push_back(Micros(r.to_json_ns));
      round_trip_us.push_back(Micros(round_trip));
      // Self times: each span's duration minus its children's.
      net_self_us.push_back(Micros(round_trip - handler_ns - r.record_ns));
      unattributed_us.push_back(Micros(handler_ns - r.plan_ns - r.scan_ns -
                                       r.materialize_ns - r.render_ns));
    }
  }
  log.WriteJsonl(options.run_dir + "/spans-" + options.workload + "-seed" +
                 std::to_string(options.seed) + ".jsonl");

  // Write path: the set-up load (capped per relation, except on relations
  // the ingest writer continues) and every write of the ingest writer,
  // replayed into same-declaration relations and a durable backlog.
  std::vector<std::string> replay;
  for (size_t r = 0; r < workload.setup.size(); ++r) {
    const std::vector<std::string>& s = workload.setup[r].statements;
    const bool continued = std::find(workload.written.begin(),
                                     workload.written.end(),
                                     r) != workload.written.end();
    const size_t cap =
        continued ? s.size() : kInsertReplays / workload.setup.size();
    for (size_t i = 1; i < s.size() && i <= cap; ++i) replay.push_back(s[i]);
  }
  for (const MeasuredRun* run : {&untraced, &traced}) {
    for (const ConnStats& c : run->connections) {
      for (const WriteRecord& w : c.writes) replay.push_back(w.statement);
    }
  }
  const InsertReplays ins =
      ReplayWrites(workload, replay, options.run_dir + "/append_store");

  // Recovery: reopen every relation directory the run wrote.
  double recover_s = 0;
  for (const RelationSpec& spec : workload.relations) {
    tempspec::Result<tempspec::ParsedRelation> parsed =
        tempspec::ParseCreateRelation(CreateStatement(spec.app, spec.name));
    if (!parsed.ok()) continue;
    tempspec::RelationOptions ro;
    ro.schema = parsed.ValueOrDie().schema;
    ro.specializations = parsed.ValueOrDie().specializations;
    ro.storage.directory = data_dir + "/relations/" + spec.name;
    const int64_t t0 = NowNanos();
    auto reopened = tempspec::TemporalRelation::Open(std::move(ro));
    recover_s += static_cast<double>(NowNanos() - t0) / 1e9;
    if (!reopened.ok()) out.errors.push_back("cannot reopen " + spec.name);
  }
  std::filesystem::remove_all(data_dir);
  std::filesystem::remove_all(options.run_dir + "/append_store");

  const double rows_scanned =
      static_cast<double>(Diff(after, before, "executor.rows_scanned"));
  const double rows_returned =
      static_cast<double>(Diff(after, before, "executor.elements_returned"));
  const double untraced_ops = OpsPerSecond(untraced);
  const double traced_ops = OpsPerSecond(traced);
  out.metrics = {
      {"net.self_us.p50", Percentile(net_self_us, 0.5), "us"},
      {"net.self_us.p99", Percentile(net_self_us, 0.99), "us"},
      {"net.reply_bytes.mean", Mean(reply_bytes), "B"},
      {"net.requests_rejected", static_cast<double>(rejected), "count"},
      {"catalog.execute_us.p50", Percentile(execute_us, 0.5), "us"},
      {"catalog.execute_us.p99", Percentile(execute_us, 0.99), "us"},
      {"catalog.render_us.p50", Percentile(render_us, 0.5), "us"},
      {"catalog.read_stall_us.p99",
       Percentile(read_execute_us, 0.99) - Percentile(replay_execute_us, 0.99),
       "us"},
      {"query.plan_us.p50", Percentile(plan_us, 0.5), "us"},
      {"query.scan_us.p50", Percentile(scan_us, 0.5), "us"},
      {"query.scan_us.p99", Percentile(scan_us, 0.99), "us"},
      {"query.materialize_us.p50", Percentile(materialize_us, 0.5), "us"},
      {"query.rows_scanned_per_row",
       rows_returned > 0 ? rows_scanned / rows_returned : 0, "ratio"},
  };
  for (const char* token : kKernelTokens) {
    out.metrics.push_back(
        {std::string("query.kernel.") + token,
         static_cast<double>(Diff(after, before,
                                  std::string("executor.kernel.") + token)),
         "count"});
  }
  out.metrics.insert(
      out.metrics.end(),
      {
          {"index.probe_us.p50", Percentile(probe_us, 0.5), "us"},
          {"index.positions_per_probe",
           probe_us.empty() ? 0
                            : probe_positions /
                                  static_cast<double>(probe_us.size()),
           "count"},
          {"relation.insert_us.p50", Percentile(ins.insert_us, 0.5), "us"},
          {"relation.insert_us.p99", Percentile(ins.insert_us, 0.99), "us"},
          {"storage.append_us.p50", Percentile(ins.append_us, 0.5), "us"},
          {"storage.append_us.p99", Percentile(ins.append_us, 0.99), "us"},
          {"storage.wal_bytes_per_element",
           wal_bytes / static_cast<double>(inserted), "B"},
          {"storage.recover_s", recover_s, "s"},
          {"obs.record_us.p50", Percentile(record_us, 0.5), "us"},
          {"obs.to_json_us.p50", Percentile(to_json_us, 0.5), "us"},
          {"budget.unattributed_us.p50", Percentile(unattributed_us, 0.5),
           "us"},
          {"trace.overhead",
           untraced_ops > 0 ? traced_ops / untraced_ops : 0, "ratio"},
      });

  // The budget: per-layer p50s against the round-trip p50.
  const double rt_p50 = Percentile(round_trip_us, 0.5);
  const double layer_sum =
      Percentile(net_self_us, 0.5) + Percentile(plan_us, 0.5) +
      Percentile(scan_us, 0.5) + Percentile(materialize_us, 0.5) +
      Percentile(render_us, 0.5) + Percentile(record_us, 0.5) +
      Percentile(unattributed_us, 0.5);
  const double share = rt_p50 > 0 ? layer_sum / rt_p50 : 0;
  const bool within = share >= 1 - kBudgetTolerance && share <= 1 + kBudgetTolerance;
  out.evidence = "{\"requests_traced\": " + std::to_string(request) +
                 ", \"reads_replayed\": " + std::to_string(read_replays) +
                 ", \"inserts_replayed\": " + std::to_string(ins.insert_us.size()) +
                 ", \"round_trip_p50_us\": " + JsonNumber(rt_p50) +
                 ", \"layer_p50_sum_us\": " + JsonNumber(layer_sum) +
                 ", \"budget_share\": " + JsonNumber(share) +
                 ", \"budget_tolerance\": " + JsonNumber(kBudgetTolerance) +
                 ", \"budget_within_tolerance\": " + (within ? "true" : "false") +
                 ", \"untraced_ops_per_s\": " + JsonNumber(untraced_ops) +
                 ", \"traced_ops_per_s\": " + JsonNumber(traced_ops) + "}";
  return out;
}

}  // namespace servebench
