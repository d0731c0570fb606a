// servebench determinism self-test.
//
//   - The same seed gives byte-identical statement lists (set-up load,
//     measured lists, the ingest write stream); a different seed changes
//     them.
//   - The deterministic counts repeat exactly across two same-seed runs:
//     rows scanned, elements returned, statements per kernel token, WAL
//     bytes and bytes on disk. Each run loads a fresh in-process
//     QueryService on its own data dir and executes the set-up plus a fixed
//     prefix of every connection's list, single-threaded.
//   - The pinned DDL still matches the engine's tenant declarations, and the
//     benchmark's time literals parse back to the instants they encode.
//
// Run it with `python3 servebench/run.py selftest` (or ctest in the build
// directory); the optional argument names its scratch directory. Exit
// status 0 means every check passed.
#include <cstdio>
#include <filesystem>
#include <map>
#include <string>
#include <vector>

#include "catalog/query_service.h"
#include "harness.h"
#include "obs/metrics.h"
#include "timex/calendar.h"
#include "workload/tenant_driver.h"
#include "workloads.h"

namespace servebench {
namespace {

int failures = 0;

void Check(bool ok, const std::string& what) {
  std::printf("%s  %s\n", ok ? "PASS" : "FAIL", what.c_str());
  if (!ok) ++failures;
}

/// Every statement a workload generates for `seed`, in order: set-up,
/// measured lists, then the first `writes` of the ingest write stream.
std::vector<std::string> AllStatements(const std::string& name, uint64_t seed,
                                       size_t writes) {
  Workload w;
  MakeWorkload(name, seed, &w);
  std::vector<std::string> out;
  for (const RelationSetup& s : w.setup) {
    out.insert(out.end(), s.statements.begin(), s.statements.end());
  }
  for (const ConnectionPlan& c : w.connections) {
    out.insert(out.end(), c.statements.begin(), c.statements.end());
  }
  if (!w.written.empty()) {
    std::vector<RelationGen*> gens;
    for (size_t r : w.written) gens.push_back(w.gens[r].get());
    WriteStream stream(gens, w.delete_percent, seed);
    for (size_t i = 0; i < writes; ++i) out.push_back(stream.Next().statement);
  }
  return out;
}

/// The deterministic counters of one single-threaded pass.
std::map<std::string, uint64_t> CountPass(const std::string& name,
                                          uint64_t seed,
                                          const std::string& dir) {
  constexpr size_t kPrefix = 1500;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  Workload w;
  MakeWorkload(name, seed, &w);
  tempspec::QueryServiceOptions options;
  options.data_dir = dir;
  auto before = tempspec::MetricsRegistry::Instance().Scrape().counters;
  std::map<std::string, uint64_t> counts;
  {
    tempspec::QueryService service(options);
    if (!service.Open().ok()) return counts;
    for (const RelationSetup& s : w.setup) {
      for (const std::string& statement : s.statements) {
        (void)service.Execute(statement, nullptr);
      }
    }
    for (const ConnectionPlan& c : w.connections) {
      for (size_t i = 0; i < c.statements.size() && i < kPrefix; ++i) {
        (void)service.Execute(c.statements[i], nullptr);
      }
    }
    if (!w.written.empty()) {
      std::vector<RelationGen*> gens;
      for (size_t r : w.written) gens.push_back(w.gens[r].get());
      WriteStream stream(gens, w.delete_percent, seed);
      for (size_t i = 0; i < kPrefix; ++i) {
        (void)service.Execute(stream.Next().statement, nullptr);
      }
    }
  }
  const auto after = tempspec::MetricsRegistry::Instance().Scrape().counters;
  for (const auto& [metric, value] : after) {
    const bool tracked = metric == "executor.rows_scanned" ||
                         metric == "executor.elements_returned" ||
                         metric == "storage.wal.bytes_appended" ||
                         metric.rfind("executor.kernel.", 0) == 0;
    if (!tracked) continue;
    auto b = before.find(metric);
    counts[metric] = value - (b == before.end() ? 0 : b->second);
  }
  counts["disk_bytes"] = static_cast<uint64_t>(DirectoryBytes(dir));
  std::filesystem::remove_all(dir);
  return counts;
}

void CheckPinnedDdl() {
  using tempspec::Scenario;
  using tempspec::TenantDriver;
  const struct {
    App app;
    Scenario scenario;
    const char* name;
  } pairs[] = {
      {App::kProcessMonitoring, Scenario::kProcessMonitoring,
       "plant_temperatures"},
      {App::kDegenerate, Scenario::kDegenerateMonitoring, "reactor_samples"},
      {App::kPayroll, Scenario::kPayroll, "payroll_deposits"},
      {App::kAssignments, Scenario::kAssignments, "assignments"},
      {App::kAccounting, Scenario::kAccounting, "ledger"},
      {App::kOrders, Scenario::kOrders, "orders"},
      {App::kArchaeology, Scenario::kArchaeology, "strata"},
      {App::kGeneral, Scenario::kGeneral, "general_events"},
  };
  for (const auto& p : pairs) {
    std::string engine = TenantDriver::CreateStatement(p.scenario);
    if (p.app == App::kDegenerate) {
      // The one deliberate deviation: 1s instead of 1d granularity.
      const size_t at = engine.find("GRANULARITY 1d");
      if (at != std::string::npos) engine.replace(at, 14, "GRANULARITY 1s");
    }
    Check(CreateStatement(p.app, p.name) == engine,
          std::string("pinned DDL matches the tenant declaration of ") +
              p.name);
  }
}

void CheckTimeLiterals() {
  bool ok = true;
  Rng rng(99);
  for (int i = 0; i < 2000 && ok; ++i) {
    const int64_t s = rng.Uniform(-400LL * 86400 * 365, 400LL * 86400 * 365);
    std::string literal = TimeLiteral(s);
    literal = literal.substr(1, literal.size() - 2);
    auto parsed = tempspec::ParseTimePoint(literal);
    ok = parsed.ok() && parsed.ValueOrDie().micros() == s * 1000000;
    if (!ok) std::printf("  %lld -> %s\n", static_cast<long long>(s), literal.c_str());
  }
  Check(ok, "time literals parse back to the instants they encode");
}

}  // namespace
}  // namespace servebench

int main(int argc, char** argv) {
  using namespace servebench;
  // Scratch space for the counting passes (each pass removes its own).
  const std::string scratch = argc > 1 ? argv[1] : "servebench_selftest";
  CheckPinnedDdl();
  CheckTimeLiterals();
  for (const std::string& name : WorkloadNames()) {
    const auto a = AllStatements(name, 7, 5000);
    const auto b = AllStatements(name, 7, 5000);
    const auto c = AllStatements(name, 8, 5000);
    Check(!a.empty() && a == b,
          name + ": same seed, byte-identical statements (" +
              std::to_string(a.size()) + ")");
    Check(a != c, name + ": a different seed changes the statements");

    const std::string dir = scratch + "/" + name;
    const auto first = CountPass(name, 7, dir);
    const auto second = CountPass(name, 7, dir);
    std::string shown;
    for (const auto& [metric, value] : first) {
      if (value > 0) shown += " " + metric + "=" + std::to_string(value);
    }
    Check(!first.empty() && first == second,
          name + ": deterministic counts repeat exactly:" + shown);
  }
  std::printf("%s\n", failures == 0 ? "servebench self-test passed"
                                     : "servebench self-test FAILED");
  return failures == 0 ? 0 : 1;
}
