#!/usr/bin/env python3
"""Builds the perfbench binary from source and runs one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload plan_fresh --seed 1 --seconds 12 --trace 0

The first run configures and compiles perfbench/ (which compiles ../src)
into .bench_build/perfbench; later runs only re-check the build. Build
output goes to stderr, so the last line of stdout is the binary's JSON
result. The exit code is the binary's: 0 when every output check passed.
"""

import fcntl
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "perfbench")


def log(msg):
    print(f"run.py: {msg}", file=sys.stderr, flush=True)


def run_quiet(cmd):
    """Runs a build step with its output on stderr; returns the exit code."""
    return subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log(f"no ReLM sources under {ROOT}/src; cannot build the benchmark")
        return False
    os.makedirs(BUILD_DIR, exist_ok=True)
    # One build at a time per checkout, even if runs are started together.
    with open(os.path.join(BUILD_DIR, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
            cmd = ["cmake", "-S", HERE, "-B", BUILD_DIR,
                   "-DCMAKE_BUILD_TYPE=Release"]
            if shutil.which("ninja"):
                cmd += ["-G", "Ninja"]
            if run_quiet(cmd) != 0:
                log("configure failed")
                return False
        jobs = str(max(1, min(4, os.cpu_count() or 1)))
        if run_quiet(["cmake", "--build", BUILD_DIR, "--target", "perfbench",
                      "-j", jobs]) != 0:
            log("build failed")
            return False
    return os.path.isfile(BINARY)


def main():
    if not build():
        return 2
    cmd = [BINARY, "--scripts-dir", os.path.join(ROOT, "scripts")]
    cmd += sys.argv[1:]
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())
