#include "obs/build_info.h"

#include "obs/metrics.h"

namespace tempspec {

std::string BuildConfigJson() {
  // Metrics, failpoints and the flight recorder are always compiled in. The
  // three keys stay so stamps remain comparable with earlier results.
  std::string out =
      "{\"metrics_enabled\":1,\"failpoints_enabled\":1,"
      "\"flightrecorder_enabled\":1";
#ifdef TEMPSPEC_SANITIZE_NAME
  out += ",\"sanitizers\":\"" + JsonEscape(TEMPSPEC_SANITIZE_NAME) + "\"";
#else
  out += ",\"sanitizers\":\"\"";
#endif
  out += ",\"compiler\":\"" + JsonEscape(__VERSION__) + "\"}";
  return out;
}

}  // namespace tempspec
