#!/usr/bin/env python3
"""Build and run the vstream repository benchmark.

Usage (from the repository root):

    python3 perfbench/run.py --workload fig11|fleet|mab16 \
        --seed N --seconds S --trace 0|1

The benchmark program (perfbench/src) and the simulator library it
measures (src/) are built from source in Release mode into the build
directory: $CARGO_TARGET_DIR when set (relative paths are taken from
the repository root), else .bench_build.  Build output goes to stderr,
so the last line of stdout is the program's JSON result.  The exit code
is the program's, or non-zero when the build fails.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return d if os.path.isabs(d) else os.path.join(ROOT, d)


def build(out):
    """Configure once, then build the program; returns the exit code."""
    jobs = str(os.cpu_count() or 1)
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        rc = subprocess.call(
            ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"],
            stdout=sys.stderr)
        if rc != 0:
            return rc
    return subprocess.call(
        ["cmake", "--build", out, "--target", "vstream_perfbench",
         "-j", jobs],
        stdout=sys.stderr)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=["fig11", "fleet", "mab16"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    out = build_dir()
    rc = build(out)
    if rc != 0:
        print("perfbench: build failed", file=sys.stderr)
        return rc or 1
    spans = os.path.join(
        out, "spans-%s-%d.csv" % (args.workload, args.seed))
    return subprocess.call([
        os.path.join(out, "vstream_perfbench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", repr(args.seconds),
        "--trace", str(args.trace),
        "--digests", os.path.join(HERE, "digests.txt"),
        "--spans", spans,
    ])


if __name__ == "__main__":
    sys.exit(main())
