// One benchmark run's options and outcome, and the traced run: the
// per-layer budget of one workload (see README.md, "Per-layer metrics").
#ifndef SERVEBENCH_LAYERS_H_
#define SERVEBENCH_LAYERS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "stats.h"
#include "workloads.h"

namespace servebench {

struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string serve_bin;
  std::string run_dir;
};

struct RunOutcome {
  std::vector<Metric> metrics;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> errors;
  std::string stamp = "{}";
  std::string evidence = "{}";
};

/// Hosts QueryService behind NetServer in-process, runs the workload
/// untraced and then traced for half of options.seconds each, and reduces
/// the spans and replays to the per-layer metrics.
RunOutcome RunTraced(const RunOptions& options, Workload& workload);

}  // namespace servebench

#endif  // SERVEBENCH_LAYERS_H_
