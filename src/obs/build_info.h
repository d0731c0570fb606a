// The build-configuration stamp, shared by /varz and the bench JSON params:
// perf numbers and live telemetry are only comparable between
// identically-configured trees, so every surface carries the same stamp.
#ifndef TEMPSPEC_OBS_BUILD_INFO_H_
#define TEMPSPEC_OBS_BUILD_INFO_H_

#include <string>

namespace tempspec {

/// \brief JSON object describing this binary's compile-time configuration:
/// {"metrics_enabled":1,"failpoints_enabled":1,"flightrecorder_enabled":1,
///  "sanitizers":""|"thread"|"address","compiler":"<__VERSION__>"}.
std::string BuildConfigJson();

}  // namespace tempspec

#endif  // TEMPSPEC_OBS_BUILD_INFO_H_
