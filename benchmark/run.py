#!/usr/bin/env python3
"""Build and run one workload of the pgssi benchmark.

    python3 benchmark/run.py --workload sibench-hot --seed 1 --seconds 20 --trace 0

Builds the engine library and the benchmark binary from this checkout
(CMake, Release, tests and figure benches off: nothing is fetched) into
.bench_build/, then runs the workload in a fresh state directory under
.bench_build/run/ that is removed afterwards. The last line of standard
output is the result: one JSON object with correct, attempted, failed and
metrics. Build output and diagnostics go to standard error. Exits non-zero,
without a result, when the engine sources are missing, the build fails or
the workload cannot run.
"""
import argparse
import fcntl
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
CMAKE_DIR = os.path.join(BUILD, "cmake")
BINARY = os.path.join(CMAKE_DIR, "pgssi_benchmark")
WORKLOADS = ("sibench-hot", "dbt2-durable", "rubis-wire")
# Files the build needs besides the benchmark's own.
ENGINE_FILES = ("CMakeLists.txt", "db/transaction_handle.h", "net/server.h",
                "wal/wal_writer.h", "ssi/siread_lock_manager.h")
RUN_LIMIT_S = 170  # every run must end within 180 s


def fail(msg, code=2):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(code)


def sh(cmd):
    """Runs a build step with its output on stderr; returns its exit code."""
    print("+ " + " ".join(cmd), file=sys.stderr, flush=True)
    return subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode


def build():
    os.makedirs(BUILD, exist_ok=True)
    jobs = str(min(4, os.cpu_count() or 1))
    configure = ["cmake", "-S", HERE, "-B", CMAKE_DIR,
                 "-DCMAKE_BUILD_TYPE=Release"]
    make = ["cmake", "--build", CMAKE_DIR, "-j", jobs,
            "--target", "pgssi_benchmark"]
    # One build at a time per checkout; later runs find it up to date.
    with open(os.path.join(BUILD, "build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        cached = os.path.exists(os.path.join(CMAKE_DIR, "CMakeCache.txt"))
        if cached and sh(make) == 0:
            return
        # No build yet, or a stale one (e.g. configured at another path).
        shutil.rmtree(CMAKE_DIR, ignore_errors=True)
        if sh(configure) != 0 or sh(make) != 0:
            fail("build failed (see the compiler output above)")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()
    if not 1 <= args.seconds <= 60:
        fail("--seconds must lie in [1, 60]")
    if args.seed < 0:
        fail("--seed must be >= 0")

    missing = [f for f in ENGINE_FILES if not os.path.isfile(os.path.join(ROOT, f))]
    if missing:
        fail(f"engine sources not found in {ROOT} (missing {', '.join(missing)}); "
             "run from the root of a full pgssi checkout")
    for tool in ("cmake", "c++"):
        if shutil.which(tool) is None:
            fail(f"'{tool}' not found on PATH")

    build()

    run_dir = os.path.join(BUILD, "run")
    os.makedirs(run_dir, exist_ok=True)
    state = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=run_dir)
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--state-dir", state]
    if args.trace:
        trace_dir = os.path.join(BUILD, "trace")
        os.makedirs(trace_dir, exist_ok=True)
        cmd += ["--trace-out",
                os.path.join(trace_dir, f"{args.workload}.spans")]
    try:
        # subprocess.run kills and reaps the child on timeout.
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=RUN_LIMIT_S)
    except subprocess.TimeoutExpired:
        fail(f"workload did not finish within {RUN_LIMIT_S} s", 3)
    finally:
        shutil.rmtree(state, ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        fail(f"benchmark exited with code {proc.returncode}", 3)
    print("\n".join(lines), flush=True)


if __name__ == "__main__":
    main()
