#!/usr/bin/env python3
"""Build perfbench from this checkout's sources, then run one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The build goes to
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench); its
output is sent to stderr so that the benchmark's JSON result stays the
last line of stdout. Exits nonzero, without a result, when the checkout
has no mxlisp sources or the build fails.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.stderr.write("perfbench: no mxlisp sources (src/CMakeLists.txt) "
                         "next to perfbench/\n")
        return None
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    out = os.path.join(ROOT, target, "perfbench")
    jobs = str(os.cpu_count() or 1)
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", out, "--target", "perfbench",
                  "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, cwd=ROOT).returncode != 0:
            sys.stderr.write("perfbench: build failed: %s\n" % " ".join(cmd))
            return None
    return os.path.join(out, "perfbench")


def main():
    binary = build()
    if binary is None:
        return 2
    sys.stdout.flush()
    args = [binary] + sys.argv[1:] + ["--data", os.path.join(HERE, "data")]
    return subprocess.run(args, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
