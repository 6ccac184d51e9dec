#!/usr/bin/env python3
"""Build and run the serving benchmark from the root of a source checkout.

    python3 perfbench/run.py --workload hot-mix --seed 1 --seconds 10 --trace 0

Configures a Release build of the library and the benchmark under
$CARGO_TARGET_DIR (default .bench_build), builds it, then runs the
workload.  The last line of standard output is the result JSON.  Build
output goes to standard error.  Exits non-zero when the build fails or
the run rejects itself (payload mismatch, failed self-check, lagging
sender, work counts that do not repeat).
"""
import argparse
import os
import shutil
import subprocess
import sys

WORKLOADS = ["hot-mix", "cold-gk", "overload-qos", "shard-mutate"]


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    here = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(here)
    out = os.path.join(root, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    build = os.path.join(out, "perfbench")
    if not os.path.isfile(os.path.join(root, "src", "CMakeLists.txt")):
        sys.exit("perfbench: no library sources next to the benchmark")

    configure = ["cmake", "-S", here, "-B", build, "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja"):
        configure += ["-G", "Ninja"]
    steps = [configure, ["cmake", "--build", build, "-j", "4"]]
    if os.path.isfile(os.path.join(build, "CMakeCache.txt")):
        steps = steps[1:]
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            sys.exit("perfbench: build failed: " + " ".join(step))

    tag = "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)
    for sub in ("results", "traces"):
        os.makedirs(os.path.join(out, sub), exist_ok=True)
    cmd = [os.path.join(build, "pslocal_perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--result-out", os.path.join(out, "results", tag + ".json")]
    if args.trace:
        cmd += ["--trace-out", os.path.join(out, "traces", tag + ".json")]
    sys.stdout.flush()
    return subprocess.run(cmd, cwd=root).returncode


if __name__ == "__main__":
    sys.exit(main())
