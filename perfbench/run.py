#!/usr/bin/env python3
"""Build and run the repository benchmark.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest
    python3 perfbench/run.py --reference

The first call configures and builds the library and the harness
(perfbench/CMakeLists.txt) in the build directory: $CARGO_TARGET_DIR
when set, else .bench_build, with a perfbench/ subdirectory.  Later
calls only re-run the incremental build.  Build output goes to stderr,
so the last line of stdout is the harness's JSON result.
"""

import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
JOBS = str(max(1, min(4, os.cpu_count() or 1)))


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def run_quiet(cmd):
    """Run a build step with its output on stderr; True on success."""
    return subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                          cwd=ROOT).returncode == 0


def build(out):
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", out,
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if not run_quiet(cmd):
            shutil.rmtree(out, ignore_errors=True)
            return False
    return run_quiet(["cmake", "--build", out, "-j", JOBS])


def main():
    out = build_dir()
    if not build(out):
        print("perfbench: build failed", file=sys.stderr)
        return 2
    args = sys.argv[1:]
    if args == ["--selftest"]:
        exe, args = "aimbench_selftest", []
    else:
        exe, args = "aimbench", args + ["--out", out]
    return subprocess.run([os.path.join(out, exe)] + args,
                          cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
