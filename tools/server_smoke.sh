#!/usr/bin/env bash
# Smoke check for the network query plane: start tempspec_serve on an
# ephemeral port with a fresh data dir, the metrics history sampler and one
# declared SLO, then drive the full surface live — DDL + INSERT + queries
# over HTTP, ping and a deadline-tagged query over the TSP1 binary frame
# protocol (via a small python client), every telemetry page, and a restart
# that must recover the inserted data through the WAL.
#
# Each of the seven telemetry pages is validated and must be non-empty:
# /healthz, /metrics (check_metrics_text.py, incl. the labeled
# tempspec_query_latency series), /varz (JSON with the build stamp),
# /debug/events (check_flight_json.py), /debug/traces (at least one sampled
# span), /debug/health (check_health_json.py: the declared SLO and a latency
# series) and /metrics/history (check_health_json.py: at least one sample).
# The fatal-signal flight dump is checked by the server_crash_test case
# FatalSignalDumpsFlightRecorderThatValidates.
#
# Usage: tools/server_smoke.sh [build_dir]   (default: build)
set -u

BUILD_DIR="${1:-build}"
SERVE="$BUILD_DIR/tools/tempspec_serve"
TOOLS="$(dirname "$0")"

if [ ! -x "$SERVE" ]; then
  echo "no tempspec_serve binary at $SERVE (build with the default CMake config first)" >&2
  exit 2
fi

OUT_DIR="$(mktemp -d)"
PORT_FILE="$OUT_DIR/port"
DATA_DIR="$OUT_DIR/data"
cleanup() {
  [ -n "${SERVE_PID:-}" ] && kill "$SERVE_PID" 2>/dev/null
  rm -rf "$OUT_DIR"
}
trap cleanup EXIT

start_server() {
  rm -f "$PORT_FILE"
  "$SERVE" --port=0 --data-dir="$DATA_DIR" --portfile="$PORT_FILE" \
      --history-ms=50 --slo=smoke_readings=1000 \
      > "$OUT_DIR/serve.out" 2>&1 &
  SERVE_PID=$!
  port=""
  for _ in $(seq 1 100); do
    if [ -s "$PORT_FILE" ]; then
      port="$(cat "$PORT_FILE")"
      break
    fi
    if ! kill -0 "$SERVE_PID" 2>/dev/null; then
      echo "tempspec_serve exited before binding:" >&2
      cat "$OUT_DIR/serve.out" >&2
      exit 1
    fi
    sleep 0.1
  done
  if [ -z "$port" ]; then
    echo "tempspec_serve never wrote its port file" >&2
    exit 1
  fi
}

failures=0
check() {  # check <label> <got> <want-substring>
  if printf '%s' "$2" | grep -q "$3"; then
    echo "$1: OK"
  else
    echo "$1: FAIL: wanted '$3', got '$2'"
    failures=$((failures + 1))
  fi
}

start_server

check "/healthz" "$(curl -sf "http://127.0.0.1:$port/healthz")" "^ok$"

post() { curl -s -X POST --data-binary "$1" "http://127.0.0.1:$port/query"; }

check "CREATE over HTTP" \
  "$(post "CREATE EVENT RELATION smoke_readings ( sensor INT64 KEY, celsius DOUBLE ) GRANULARITY 1s")" \
  "created relation smoke_readings"
check "INSERT over HTTP" \
  "$(post "INSERT INTO smoke_readings OBJECT 7 VALUES (7, 21.5) VALID AT '1992-02-03 10:30:00'")" \
  "inserted element 1"
check "CURRENT over HTTP" "$(post "CURRENT smoke_readings")" "1 element(s) *shown\|1 element(s)"
check "SHOW over HTTP" "$(post "SHOW SPECIALIZATION smoke_readings")" "declared"
check "bad statement is 4xx" \
  "$(curl -s -o /dev/null -w '%{http_code}' -X POST --data-binary "BOGUS" \
      "http://127.0.0.1:$port/query")" "^400$"

# Telemetry rides the same port. The pages are scraped after the statements
# above, so each must describe them.
scrape() {  # scrape <target> <file>; counts a failure on a curl error
  curl -sf "http://127.0.0.1:$port$1" -o "$OUT_DIR/$2" && return 0
  echo "$1: FAIL: curl error"
  failures=$((failures + 1))
  return 1
}

if scrape /metrics metrics.txt; then
  python3 "$TOOLS/check_metrics_text.py" "$OUT_DIR/metrics.txt" \
    || failures=$((failures + 1))
  for sample in "server_requests " "querylang_statements " \
                "tempspec_query_latency_bucket{"; do
    if ! grep -q "^$sample" "$OUT_DIR/metrics.txt"; then
      echo "/metrics: FAIL: no '$sample' sample in the scrape"
      failures=$((failures + 1))
    fi
  done
fi

if scrape /varz varz.json; then
  python3 - "$OUT_DIR/varz.json" <<'EOF' || failures=$((failures + 1))
import json, sys
try:
    build = json.load(open(sys.argv[1], encoding="utf-8"))["build"]
    assert "compiler" in build and "sanitizers" in build, build
except (ValueError, KeyError, AssertionError) as e:
    sys.exit(f"/varz: FAIL: {e!r}")
print("/varz: OK")
EOF
fi

if scrape /debug/events events.jsonl; then
  python3 "$TOOLS/check_flight_json.py" --min-events 1 "$OUT_DIR/events.jsonl" \
    || failures=$((failures + 1))
fi

if scrape /debug/traces traces.jsonl; then
  python3 - "$OUT_DIR/traces.jsonl" <<'EOF' || failures=$((failures + 1))
import json, sys
spans = 0
try:
    for line in open(sys.argv[1], encoding="utf-8"):
        span = json.loads(line)
        assert "trace_id" in span and "trace" in span, line
        spans += 1
    assert spans >= 1, "no sampled span"
except (ValueError, AssertionError) as e:
    sys.exit(f"/debug/traces: FAIL: {e!r}")
print(f"/debug/traces: OK ({spans} sampled span(s))")
EOF
fi

if scrape /debug/health health.json; then
  python3 "$TOOLS/check_health_json.py" --health --min-slos 1 --min-series 1 \
    "$OUT_DIR/health.json" || failures=$((failures + 1))
fi

# The sampler ticks every 50 ms; wait up to 5 s for its first sample.
for _ in $(seq 1 50); do
  scrape /metrics/history history.jsonl || break
  [ -s "$OUT_DIR/history.jsonl" ] && break
  sleep 0.1
done
if [ -f "$OUT_DIR/history.jsonl" ]; then
  python3 "$TOOLS/check_health_json.py" --history --min-samples 1 \
    "$OUT_DIR/history.jsonl" || failures=$((failures + 1))
fi

# The TSP1 binary frame protocol on the same port: ping/pong round-trip and
# a deadline-tagged query (header layout in net/frame.h).
if python3 - "$port" > "$OUT_DIR/frames.out" <<'EOF'
import socket, struct, sys, zlib

port = int(sys.argv[1])
MAGIC = 0x31505354

def frame(ftype, payload, deadline_ms=None):
    flags = 0
    if deadline_ms is not None:
        flags = 1
        payload = struct.pack('<Q', deadline_ms) + payload
    return struct.pack('<IBBHII', MAGIC, ftype, flags, 0, len(payload),
                       zlib.crc32(payload) & 0xffffffff) + payload

def read_frame(sock):
    hdr = b''
    while len(hdr) < 16:
        chunk = sock.recv(16 - len(hdr))
        if not chunk:
            raise EOFError('connection closed mid-header')
        hdr += chunk
    magic, ftype, flags, reserved, plen, crc = struct.unpack('<IBBHII', hdr)
    assert magic == MAGIC, hex(magic)
    payload = b''
    while len(payload) < plen:
        chunk = sock.recv(plen - len(payload))
        if not chunk:
            raise EOFError('connection closed mid-payload')
        payload += chunk
    assert zlib.crc32(payload) & 0xffffffff == crc, 'response CRC mismatch'
    return ftype, payload

s = socket.create_connection(('127.0.0.1', port))
s.sendall(frame(4, b'smoke'))                      # ping
ftype, payload = read_frame(s)
assert (ftype, payload) == (5, b'smoke'), (ftype, payload)
s.sendall(frame(1, b'CURRENT smoke_readings', deadline_ms=5000))
ftype, payload = read_frame(s)
assert ftype == 2, (ftype, payload)                # kResult
assert b'1 element(s)' in payload, payload
s.close()
print('binary ping + deadline query round-tripped')
EOF
then
  echo "binary protocol: OK"
else
  echo "binary protocol: FAIL"
  cat "$OUT_DIR/frames.out"
  failures=$((failures + 1))
fi

# Restart: SIGTERM, relaunch on the same data dir, the insert must survive.
kill "$SERVE_PID"
wait "$SERVE_PID" 2>/dev/null
start_server
check "recovery after restart" "$(post "CURRENT smoke_readings")" "1 element(s)"

kill "$SERVE_PID" 2>/dev/null
wait "$SERVE_PID" 2>/dev/null
SERVE_PID=""

if [ $failures -ne 0 ]; then
  echo "server smoke: $failures failure(s)"
  exit 1
fi
echo "server smoke: HTTP + binary protocols, all seven telemetry pages, and WAL recovery all live"
