#!/usr/bin/env bash
# Smoke check for the live telemetry plane: start the ddl_tour example with
# the exporter enabled, scrape /healthz, /metrics, /varz, /debug/events,
# /debug/traces, /debug/health, and /metrics/history over HTTP, and validate
# the Prometheus text with tools/check_metrics_text.py (including the
# labeled tempspec_query_latency series), the flight events with
# tools/check_flight_json.py, and the health plane with
# tools/check_health_json.py. This proves the whole chain — engine
# instrumentation -> registry -> exporter -> valid exposition — on a real
# process, not a unit-test snapshot.
#
# Usage: tools/metrics_smoke.sh [build_dir]   (default: build)
set -u

BUILD_DIR="${1:-build}"
TOUR="$BUILD_DIR/examples/ddl_tour"
CHECKER="$(dirname "$0")/check_metrics_text.py"

if [ ! -x "$TOUR" ]; then
  echo "no ddl_tour binary at $TOUR (build with the default CMake config first)" >&2
  exit 2
fi

OUT_DIR="$(mktemp -d)"
PORT_FILE="$OUT_DIR/port"
cleanup() {
  [ -n "${TOUR_PID:-}" ] && kill "$TOUR_PID" 2>/dev/null
  rm -rf "$OUT_DIR"
}
trap cleanup EXIT

# Port 0 = ephemeral; the exporter writes the resolved port to PORTFILE.
# The linger keeps the finished tour alive long enough to scrape.
TEMPSPEC_EXPORTER_PORT=0 \
TEMPSPEC_EXPORTER_PORTFILE="$PORT_FILE" \
TEMPSPEC_EXPORTER_LINGER_MS=30000 \
TEMPSPEC_SLOWLOG_MICROS=0 \
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

health="$(curl -sf "http://127.0.0.1:$port/healthz")"
if [ "$health" != "ok" ]; then
  echo "/healthz: FAIL: got '$health'"
  failures=$((failures + 1))
else
  echo "/healthz: OK"
fi

if ! curl -sf "http://127.0.0.1:$port/metrics" -o "$OUT_DIR/metrics.txt"; then
  echo "/metrics: FAIL: curl error"
  failures=$((failures + 1))
else
  python3 "$CHECKER" "$OUT_DIR/metrics.txt" || failures=$((failures + 1))
  # The tour executed statements, so the engine's own counters must be there
  # (guards against an exporter that serves an empty-but-valid page).
  if ! grep -q "^querylang_statements " "$OUT_DIR/metrics.txt"; then
    echo "/metrics: FAIL: no querylang_statements sample in the scrape"
    failures=$((failures + 1))
  fi
  # And so must the labeled latency family those statements feed.
  if ! grep -q "^tempspec_query_latency_bucket{" "$OUT_DIR/metrics.txt"; then
    echo "/metrics: FAIL: no labeled tempspec_query_latency series"
    failures=$((failures + 1))
  fi
fi

if ! curl -sf "http://127.0.0.1:$port/varz" -o "$OUT_DIR/varz.json"; then
  echo "/varz: FAIL: curl error"
  failures=$((failures + 1))
elif ! python3 -c "import json,sys; json.load(open(sys.argv[1]))" \
      "$OUT_DIR/varz.json"; then
  echo "/varz: FAIL: invalid JSON"
  failures=$((failures + 1))
else
  echo "/varz: OK"
fi

# The debug plane: the flight-recorder ring (schema-checked) and the
# retained-trace ring.
if ! curl -sf "http://127.0.0.1:$port/debug/events" -o "$OUT_DIR/events.jsonl"; then
  echo "/debug/events: FAIL: curl error"
  failures=$((failures + 1))
else
  python3 "$(dirname "$0")/check_flight_json.py" "$OUT_DIR/events.jsonl" \
    || failures=$((failures + 1))
fi

if ! curl -sf "http://127.0.0.1:$port/debug/traces" -o "$OUT_DIR/traces.jsonl"; then
  echo "/debug/traces: FAIL: curl error"
  failures=$((failures + 1))
elif ! python3 -c "
import json, sys
for line in open(sys.argv[1], encoding='utf-8'):
    json.loads(line)
print('/debug/traces: OK')" "$OUT_DIR/traces.jsonl"; then
  echo "/debug/traces: FAIL: invalid JSONL"
  failures=$((failures + 1))
fi

# The health plane: the tour declares no SLOs (an empty verdict list is
# valid) but its statements must have produced labeled latency series.
if ! curl -sf "http://127.0.0.1:$port/debug/health" -o "$OUT_DIR/health.json"; then
  echo "/debug/health: FAIL: curl error"
  failures=$((failures + 1))
else
  python3 "$(dirname "$0")/check_health_json.py" --health --min-series 1 \
    "$OUT_DIR/health.json" || failures=$((failures + 1))
fi

# No sampler runs in the tour, so the history ring is legitimately empty;
# the checker still gates the JSONL schema of whatever is served.
if ! curl -sf "http://127.0.0.1:$port/metrics/history" -o "$OUT_DIR/history.jsonl"; then
  echo "/metrics/history: FAIL: curl error"
  failures=$((failures + 1))
else
  python3 "$(dirname "$0")/check_health_json.py" --history \
    "$OUT_DIR/history.jsonl" || failures=$((failures + 1))
fi

kill "$TOUR_PID" 2>/dev/null
wait "$TOUR_PID" 2>/dev/null

if [ $failures -ne 0 ]; then
  echo "metrics smoke: $failures failure(s)"
  exit 1
fi
echo "metrics smoke: exporter served valid /metrics, /varz, /healthz, /debug, and health-plane pages"
