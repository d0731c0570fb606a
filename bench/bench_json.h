// Machine-readable bench output: every bench binary accepts `--json [path]`
// and writes a BENCH_<id>.json result file (schema below) so the perf
// trajectory can be tracked across commits by tools/check_bench_json.py.
//
// Schema (schema_version 2, single JSON object per file):
//   {
//     "schema_version": 2,
//     "bench_id": "e2_degenerate",
//     "params": {"threads": N, "metrics_enabled": 0|1,
//                "failpoints_enabled": 0|1, "flightrecorder_enabled": 0|1,
//                "sanitizers": ""|"thread"|"address",
//                "compiler": "<__VERSION__ of the building compiler>"},
//     "benchmarks": [
//       {"name": "...", "runs": N, "iterations": N,
//        "real_time_ns_median": X, "real_time_ns_p99": X,
//        "counters": {"examined": X, ...}},
//       ...
//     ],
//     "metrics": {"counters": {...}, "gauges": {...}, "histograms": {...}}
//   }
//
// The metrics object is the engine's registry snapshot at exit.
#ifndef TEMPSPEC_BENCH_BENCH_JSON_H_
#define TEMPSPEC_BENCH_BENCH_JSON_H_

#include <cstdio>
#include <cstring>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "obs/build_info.h"
#include "obs/metrics.h"
#include "percentile.h"
#include "util/thread_pool.h"

namespace tempspec {
namespace bench {

/// \brief One benchmark's aggregated result across its repetitions.
struct BenchResult {
  std::string name;
  uint64_t runs = 0;
  uint64_t iterations = 0;  // summed over runs
  double real_time_ns_median = 0;
  double real_time_ns_p99 = 0;
  std::map<std::string, double> counters;
};

inline std::string FormatDouble(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return buf;
}

/// \brief Serializes the result file (single line; schema above).
inline std::string BenchResultsToJson(const std::string& bench_id,
                                      const std::vector<BenchResult>& results) {
  std::string out = "{\"schema_version\":2";
  out += ",\"bench_id\":\"" + JsonEscape(bench_id) + "\"";
  // The full build configuration rides along with every result file: perf
  // numbers are only comparable between identically-configured trees, and
  // a sanitized run must be distinguishable after the fact. The stamp is
  // spliced from BuildConfigJson() so /varz and the bench files share one
  // source of truth (params stays a flat object for check_bench_json.py).
  out += ",\"params\":{\"threads\":" +
         std::to_string(ThreadPool::DefaultThreadCount()) + "," +
         BuildConfigJson().substr(1);
  out += ",\"benchmarks\":[";
  bool first = true;
  for (const BenchResult& r : results) {
    if (!first) out += ",";
    first = false;
    out += "{\"name\":\"" + JsonEscape(r.name) + "\"";
    out += ",\"runs\":" + std::to_string(r.runs);
    out += ",\"iterations\":" + std::to_string(r.iterations);
    out += ",\"real_time_ns_median\":" + FormatDouble(r.real_time_ns_median);
    out += ",\"real_time_ns_p99\":" + FormatDouble(r.real_time_ns_p99);
    out += ",\"counters\":{";
    bool cfirst = true;
    for (const auto& [k, v] : r.counters) {
      if (!cfirst) out += ",";
      cfirst = false;
      out += "\"" + JsonEscape(k) + "\":" + FormatDouble(v);
    }
    out += "}}";
  }
  // Recorded before the scrape so a metrics-ON tree always carries at least
  // one counter in its report — the smoke check uses that as an end-to-end
  // proof that the registry pipeline works, even for benches whose workload
  // never crosses an instrumented engine path.
  TS_COUNTER_ADD("bench.reports_written", 1);
  out += "],\"metrics\":" + MetricsRegistry::Instance().Scrape().ToJson();
  out += "}";
  return out;
}

/// \brief Extracts `--json [path]` from argv (benchmark::Initialize rejects
/// unknown flags). Returns true when present; `path` defaults to
/// BENCH_<id>.json in the working directory.
inline bool ExtractJsonFlag(int* argc, char** argv, const std::string& id,
                            std::string* path) {
  *path = "BENCH_" + id + ".json";
  bool found = false;
  int w = 1;
  for (int r = 1; r < *argc; ++r) {
    std::string_view arg(argv[r]);
    if (arg == "--json") {
      found = true;
      if (r + 1 < *argc && argv[r + 1][0] != '-') *path = argv[++r];
      continue;
    }
    if (arg.rfind("--json=", 0) == 0) {
      found = true;
      *path = std::string(arg.substr(std::strlen("--json=")));
      continue;
    }
    argv[w++] = argv[r];
  }
  *argc = w;
  return found;
}

/// \brief Writes the result file; returns false (with a stderr note) on IO
/// failure so bench main() can exit nonzero.
inline bool WriteBenchJson(const std::string& path, const std::string& bench_id,
                           const std::vector<BenchResult>& results) {
  const std::string json = BenchResultsToJson(bench_id, results);
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write bench json '%s'\n", path.c_str());
    return false;
  }
  const bool ok = std::fwrite(json.data(), 1, json.size(), f) == json.size() &&
                  std::fputc('\n', f) != EOF;
  std::fclose(f);
  if (!ok) std::fprintf(stderr, "short write on bench json '%s'\n", path.c_str());
  return ok;
}

}  // namespace bench
}  // namespace tempspec

#endif  // TEMPSPEC_BENCH_BENCH_JSON_H_
