#!/usr/bin/env python3
"""Build perfbench from this checkout's sources and run one workload.

Usage (from the repository root):
    python3 perfbench/run.py --workload kvswap --seed 1 --seconds 10 --trace 0

The build goes to $CARGO_TARGET_DIR if set, else .bench_build, both
relative to the current directory; build output goes to stderr so the
last line of stdout stays the benchmark's JSON result. The exit code
is the benchmark's, or 2 when the build fails.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def build(build_dir):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    # Keep the compiler's temporary files inside the build tree.
    tmp = os.path.join(build_dir, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    steps = []
    configured = any(os.path.exists(os.path.join(build_dir, f))
                     for f in ("Makefile", "build.ninja"))
    if not configured:
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target", "perfbench",
                  "-j", jobs])
    for cmd in steps:
        rc = subprocess.call(cmd, stdout=sys.stderr, stderr=sys.stderr,
                             env=env)
        if rc != 0:
            return False
    return True


def main():
    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR")
                                or ".bench_build")
    if not build(build_dir):
        print("perfbench: build failed", file=sys.stderr)
        return 2
    sys.stdout.flush()
    return subprocess.call([os.path.join(build_dir, "perfbench")]
                           + sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
