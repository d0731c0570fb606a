#!/usr/bin/env python3
"""Schema validator for the BENCH_<id>.json files the bench binaries emit.

Usage:
    tools/check_bench_json.py BENCH_e1_enforcement.json [more.json ...]

Validates schema_version 2 (see bench/bench_json.h): required top-level keys
and types, the build-configuration params block (threads, metrics_enabled,
failpoints_enabled, flightrecorder_enabled, sanitizers, compiler),
per-benchmark entries with numeric
median/p99 and counters, and a metrics snapshot object with
counters/gauges/histograms maps. Exits nonzero with a per-file report on the
first structural violation so CI can gate on it. Stdlib only — no third-party
dependencies.
"""
import json
import sys


def fail(path, msg):
    print(f"{path}: FAIL: {msg}")
    return False


def check_number(path, obj, key):
    if key not in obj or isinstance(obj[key], bool) or not isinstance(
            obj[key], (int, float)):
        return fail(path, f"missing or non-numeric '{key}' in {obj.keys()}")
    return True


def check_file(path):
    try:
        with open(path, "r", encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        return fail(path, f"unreadable or invalid JSON: {e}")

    if not isinstance(doc, dict):
        return fail(path, "top level is not an object")
    if doc.get("schema_version") != 2:
        return fail(path, f"schema_version is {doc.get('schema_version')!r}, "
                          "expected 2")
    if not isinstance(doc.get("bench_id"), str) or not doc["bench_id"]:
        return fail(path, "bench_id missing or empty")

    params = doc.get("params")
    if not isinstance(params, dict):
        return fail(path, "params missing or not an object")
    for key in ("threads", "metrics_enabled", "failpoints_enabled",
                "flightrecorder_enabled"):
        if not check_number(path, params, key):
            return False
    for key in ("metrics_enabled", "failpoints_enabled",
                "flightrecorder_enabled"):
        if params[key] != 1:
            return fail(path, f"{key} must be 1")
    # Build configuration: perf results are only comparable when these match.
    if params.get("sanitizers") not in ("", "thread", "address"):
        return fail(path, f"sanitizers is {params.get('sanitizers')!r}, "
                          "expected '', 'thread', or 'address'")
    if not isinstance(params.get("compiler"), str) or not params["compiler"]:
        return fail(path, "compiler missing or empty")

    benchmarks = doc.get("benchmarks")
    if not isinstance(benchmarks, list) or not benchmarks:
        return fail(path, "benchmarks missing or empty")
    for b in benchmarks:
        if not isinstance(b, dict):
            return fail(path, "benchmark entry is not an object")
        if not isinstance(b.get("name"), str) or not b["name"]:
            return fail(path, "benchmark name missing or empty")
        for key in ("runs", "iterations", "real_time_ns_median",
                    "real_time_ns_p99"):
            if not check_number(path, b, key):
                return False
        if b["real_time_ns_median"] < 0 or b["real_time_ns_p99"] < 0:
            return fail(path, f"negative timing in {b['name']}")
        if b["real_time_ns_p99"] < b["real_time_ns_median"]:
            return fail(path, f"p99 < median in {b['name']}")
        counters = b.get("counters")
        if not isinstance(counters, dict):
            return fail(path, f"counters missing in {b['name']}")
        for k, v in counters.items():
            if isinstance(v, bool) or not isinstance(v, (int, float)):
                return fail(path, f"non-numeric counter {k!r} in {b['name']}")

    metrics = doc.get("metrics")
    if not isinstance(metrics, dict):
        return fail(path, "metrics snapshot missing or not an object")
    for section in ("counters", "gauges", "histograms"):
        if not isinstance(metrics.get(section), dict):
            return fail(path, f"metrics.{section} missing or not an object")
    # Every bench must have recorded *something* by the time it exits.
    if not metrics["counters"]:
        return fail(path, "the counters map is empty")

    total = sum(len(metrics[s]) for s in ("counters", "gauges", "histograms"))
    print(f"{path}: OK ({doc['bench_id']}: {len(benchmarks)} benchmark(s), "
          f"{total} metric(s))")
    return True


def main(argv):
    if len(argv) < 2:
        print(__doc__)
        return 2
    ok = all([check_file(p) for p in argv[1:]])
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv))
