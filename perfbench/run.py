#!/usr/bin/env python3
"""Builds and runs the GEO end-to-end benchmark.

    python3 perfbench/run.py --workload lenet5-exec --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --self-test

Run from the repository root. The benchmark is compiled from source into
$CARGO_TARGET_DIR (default .bench_build) on first use; later runs only
re-check the build. Build output goes to stderr, so the last line of stdout
is always the benchmark's JSON result. Exits non-zero without a result when
the GEO sources are not present or the build fails.
"""
import os
import subprocess
import sys

ROOT = os.getcwd()
HERE = os.path.dirname(os.path.abspath(__file__))


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, base, "perfbench")


def build(out):
    src = os.path.join(HERE, "..", "src", "CMakeLists.txt")
    if not os.path.isfile(src):
        sys.stderr.write("perfbench: GEO sources not found next to %s\n" % HERE)
        return False
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", out, "-j", jobs])
    for cmd in steps:
        try:
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        except OSError as err:
            sys.stderr.write("perfbench: cannot run %s: %s\n" % (cmd[0], err))
            return False
        if done.returncode != 0:
            sys.stderr.write("perfbench: build step failed: %s\n" % " ".join(cmd))
            return False
    return True


def main(argv):
    out = build_dir()
    if not build(out):
        return 2
    sys.stdout.flush()
    if argv[:1] == ["--self-test"]:
        cmd = [os.path.join(out, "perfbench_test")] + argv[1:]
    else:
        cmd = [os.path.join(out, "geo_perfbench"),
               "--artifacts", os.path.join(out, "artifacts")] + argv
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
