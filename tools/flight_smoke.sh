#!/usr/bin/env bash
# End-to-end smoke check for the black-box flight recorder: start the
# ddl_tour example with the exporter and the crash-dump handler enabled,
# scrape /debug/events and /debug/traces off the live process, then kill it
# with SIGABRT and validate the JSONL dump the fatal-signal handler wrote
# with tools/check_flight_json.py. This proves the whole chain — engine
# instrumentation -> ring -> signal handler -> parseable black box — on a
# real dying process, which no unit test can.
#
# Usage: tools/flight_smoke.sh [build_dir]   (default: build)
set -u

BUILD_DIR="${1:-build}"
TOUR="$BUILD_DIR/examples/ddl_tour"
CHECKER="$(dirname "$0")/check_flight_json.py"

if [ ! -x "$TOUR" ]; then
  echo "no ddl_tour binary at $TOUR (build with the default CMake config first)" >&2
  exit 2
fi

OUT_DIR="$(mktemp -d)"
PORT_FILE="$OUT_DIR/port"
DUMP_FILE="$OUT_DIR/flight.jsonl"
cleanup() {
  [ -n "${TOUR_PID:-}" ] && kill -9 "$TOUR_PID" 2>/dev/null
  rm -rf "$OUT_DIR"
}
trap cleanup EXIT

TEMPSPEC_EXPORTER_PORT=0 \
TEMPSPEC_EXPORTER_PORTFILE="$PORT_FILE" \
TEMPSPEC_EXPORTER_LINGER_MS=60000 \
TEMPSPEC_FLIGHT_DUMP="$DUMP_FILE" \
    "$TOUR" > "$OUT_DIR/tour.out" 2>&1 &
TOUR_PID=$!

port=""
for _ in $(seq 1 100); do
  if [ -s "$PORT_FILE" ]; then
    port="$(cat "$PORT_FILE")"
    break
  fi
  if ! kill -0 "$TOUR_PID" 2>/dev/null; then
    echo "ddl_tour exited before binding the exporter:" >&2
    cat "$OUT_DIR/tour.out" >&2
    exit 1
  fi
  sleep 0.1
done
if [ -z "$port" ]; then
  echo "exporter never wrote its port file" >&2
  exit 1
fi

failures=0

# The live-process surfaces: both /debug endpoints must serve line-delimited
# JSON, and the tour's workload must have left events in the ring.
if ! curl -sf "http://127.0.0.1:$port/debug/events" -o "$OUT_DIR/events.jsonl"; then
  echo "/debug/events: FAIL: curl error"
  failures=$((failures + 1))
else
  python3 "$CHECKER" --min-events 1 "$OUT_DIR/events.jsonl" \
    || failures=$((failures + 1))
fi

if ! curl -sf "http://127.0.0.1:$port/debug/traces" -o "$OUT_DIR/traces.jsonl"; then
  echo "/debug/traces: FAIL: curl error"
  failures=$((failures + 1))
elif ! python3 - "$OUT_DIR/traces.jsonl" <<'EOF'
import json, sys
with open(sys.argv[1], encoding="utf-8") as f:
    for lineno, line in enumerate(f, start=1):
        t = json.loads(line)
        assert "trace_id" in t and "trace" in t, f"line {lineno}: bad shape"
print("traces: OK")
EOF
then
  echo "/debug/traces: FAIL: invalid JSONL"
  failures=$((failures + 1))
fi

# Kill the live instance mid-linger and demand a parseable black box.
kill -ABRT "$TOUR_PID"
wait "$TOUR_PID" 2>/dev/null
TOUR_PID=""
if [ ! -s "$DUMP_FILE" ]; then
  echo "crash dump: FAIL: handler wrote no dump at $DUMP_FILE"
  failures=$((failures + 1))
else
  python3 "$CHECKER" --min-events 1 "$DUMP_FILE" || failures=$((failures + 1))
fi

if [ $failures -ne 0 ]; then
  echo "flight smoke: $failures failure(s)"
  exit 1
fi
echo "flight smoke: live /debug endpoints and the SIGABRT dump all validate"
