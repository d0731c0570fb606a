// The slow-query log is the `slow` view of the span store (obs/span_store.h).
// This header remains for servebench/src/layers.cc, which includes it for
// the SlowQueryLog alias; delete it once the benchmark no longer does.
#ifndef TEMPSPEC_OBS_SLOWLOG_H_
#define TEMPSPEC_OBS_SLOWLOG_H_

#include "obs/span_store.h"

#endif  // TEMPSPEC_OBS_SLOWLOG_H_
