#!/usr/bin/env python3
"""servebench entry point: build, run, compare, self-test.

Run one measurement from the repository root:

    python3 servebench/run.py --workload point_reads --seed 1 --seconds 10 --trace 0

The first run configures and builds the engine, tempspec_serve and the load
generator (Release) into .bench_build/servebench; later runs rebuild
incrementally. The last line of stdout is the result object. Every run also
leaves its full record (environment stamp, evidence, result) under
.bench_build/run/result-<workload>-seed<N>-trace<T>.json.

    python3 servebench/run.py compare A.json B.json   # refuses differing stamps
    python3 servebench/run.py selftest                # determinism self-test
"""

import json
import os
import shutil
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "servebench")
RUN_DIR = os.path.join(ROOT, ".bench_build", "run")
RUN_TIMEOUT_S = 170


def fail(message):
    print("servebench: " + message, file=sys.stderr)
    sys.exit(1)


def build(targets):
    for needed in ("src/CMakeLists.txt", "tools/tempspec_serve.cc"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            fail("engine sources missing: " + needed)
    os.makedirs(BUILD, exist_ok=True)
    log_path = os.path.join(BUILD, "build.log")
    with open(log_path, "w") as log:
        if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
            configure = ["cmake", "-S", HERE, "-B", BUILD,
                         "-DCMAKE_BUILD_TYPE=Release"]
            if shutil.which("ninja"):
                configure += ["-G", "Ninja"]
            if subprocess.call(configure, stdout=log, stderr=log) != 0:
                shutil.rmtree(BUILD, ignore_errors=True)
                fail("configure failed (see the build log)")
        jobs = str(os.cpu_count() or 1)
        cmd = ["cmake", "--build", BUILD, "-j", jobs, "--target"] + targets
        if subprocess.call(cmd, stdout=log, stderr=log) != 0:
            with open(log_path) as f:
                sys.stderr.write("".join(f.readlines()[-30:]))
            fail("build failed")


def reap_server():
    """Stops a daemon the load generator left behind, and waits for it."""
    pid_file = os.path.join(RUN_DIR, "server.pid")
    try:
        with open(pid_file) as f:
            pid = int(f.read().strip())
        with open("/proc/%d/comm" % pid) as f:
            comm = f.read()
    except (OSError, ValueError):
        return
    if comm.startswith("tempspec_serve"):
        os.kill(pid, signal.SIGKILL)
        for _ in range(500):
            if not os.path.exists("/proc/%d" % pid):
                break
            time.sleep(0.01)
    os.remove(pid_file)


def run(argv):
    build(["servebench", "tempspec_serve"])
    os.makedirs(RUN_DIR, exist_ok=True)
    cmd = [os.path.join(BUILD, "servebench")] + argv + [
        "--serve-bin", os.path.join(BUILD, "tempspec_serve"),
        "--run-dir", RUN_DIR]
    child = subprocess.Popen(cmd, stdout=subprocess.PIPE, cwd=ROOT)
    try:
        out, _ = child.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        child.kill()
        child.wait()
        reap_server()
        fail("run exceeded %d s" % RUN_TIMEOUT_S)
    reap_server()
    if child.returncode != 0:
        fail("load generator exited with %d" % child.returncode)
    sys.stdout.write(out.decode())
    sys.stdout.flush()


def compare(a_path, b_path):
    with open(a_path) as f:
        a = json.load(f)
    with open(b_path) as f:
        b = json.load(f)
    if a["env_stamp"] != b["env_stamp"]:
        for key in sorted(set(a["env_stamp"]) | set(b["env_stamp"])):
            if a["env_stamp"].get(key) != b["env_stamp"].get(key):
                print("stamp differs on %s: %r vs %r" % (
                    key, a["env_stamp"].get(key), b["env_stamp"].get(key)),
                    file=sys.stderr)
        fail("refusing to compare results with different environment stamps")
    am = a["result"]["metrics"]
    bm = b["result"]["metrics"]
    for name in am:
        if name in bm and am[name]["value"]:
            ratio = bm[name]["value"] / am[name]["value"]
            print("%-34s %14.4f %14.4f %8.3fx %s" % (
                name, am[name]["value"], bm[name]["value"], ratio,
                am[name]["unit"]))


def main():
    args = sys.argv[1:]
    if args[:1] == ["compare"] and len(args) == 3:
        compare(args[1], args[2])
    elif args[:1] == ["selftest"]:
        build(["servebench_selftest"])
        sys.exit(subprocess.call([os.path.join(BUILD, "servebench_selftest"),
                                  os.path.join(BUILD, "selftest")]))
    elif args and args[0].startswith("--"):
        run(args)
    else:
        print(__doc__, file=sys.stderr)
        sys.exit(2)


if __name__ == "__main__":
    main()
