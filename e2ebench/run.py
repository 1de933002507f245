#!/usr/bin/env python3
"""Build and run the maestro end-to-end benchmark.

    python3 e2ebench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Configures and builds e2ebench (and the
library sources it compiles) under .bench_build/e2ebench, then runs one
workload. Build output goes to stderr; the benchmark's last stdout line is
its JSON result. Exits non-zero, printing no result, if the build or the run
fails.
"""
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
BUILD_DIR = os.path.join(".bench_build", "e2ebench")
BUILD_TIMEOUT_S = 850


def build():
    cmake = ["cmake", "-S", HERE, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
    subprocess.run(cmake, check=True, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    subprocess.run(["cmake", "--build", BUILD_DIR, "--target", "e2ebench", "-j4"],
                   check=True, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    return os.path.join(BUILD_DIR, "e2ebench")


def main(argv):
    try:
        binary = build()
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired, OSError) as err:
        print(f"e2ebench: build failed: {err}", file=sys.stderr)
        return 1
    # CLOCK_MONOTONIC, the clock std::chrono::steady_clock reads: set-up time
    # counts from this spawn.
    spawn_ns = time.monotonic_ns()
    proc = subprocess.run([binary, *argv, "--spawn-ns", str(spawn_ns)])
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
