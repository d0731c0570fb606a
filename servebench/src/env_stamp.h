// The environment stamp every servebench result carries. Two results are
// comparable only when their stamps are equal (run.py compare refuses
// otherwise): a different build type, compiler, core count, CPU, build
// flag set, worker count, morsel-pool size or data-dir filesystem changes
// the numbers for reasons no code change made.
#ifndef SERVEBENCH_ENV_STAMP_H_
#define SERVEBENCH_ENV_STAMP_H_

#include <string>

namespace servebench {

/// Statement worker threads the benchmark asks tempspec_serve for.
constexpr int kServerWorkers = 2;

/// Single-line JSON object. `varz_build` is the "build" object scraped from
/// the server's /varz; `data_dir` is probed for its filesystem type.
std::string EnvStampJson(const std::string& varz_build,
                         const std::string& data_dir);

}  // namespace servebench

#endif  // SERVEBENCH_ENV_STAMP_H_
