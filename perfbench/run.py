#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload <name> [--seed N] [--seconds S] [--trace 0|1]

Workloads: sim-hot, sim-low, kv-store, str-scan (see perfbench/main.cpp for
what each exercises and why). The script configures and builds perfbench/
with CMake (Release) into <build root>/perfbench, where the build root is
$CARGO_TARGET_DIR if set and .bench_build otherwise, relative to the
repository root. It then runs the benchmark binary and passes its output
through: a human-readable report, then as the last stdout line one JSON
object with the keys correct, attempted, failed and metrics. A traced run
(--trace 1) also leaves its spans in <build root>/perfbench/spans-<name>.tsv.

Build output goes to stderr. The exit code is the benchmark's (0 when every
output check passed); a failed build or a run over its time limit exits 1
without printing a result.
"""
import argparse
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SOURCE = os.path.join(ROOT, "perfbench")
RUN_TIMEOUT_S = 170


def build(build_dir):
    """Configures (first time) and incrementally builds the benchmark."""
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", SOURCE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", build_dir, "-j", jobs])
    # Compiler temporaries stay inside the build tree too.
    tmp = os.path.join(build_dir, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                          env=env).returncode:
            return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    args = parser.parse_args()

    build_root = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    build_dir = os.path.join(build_root, "perfbench")
    if not build(build_dir):
        print("perfbench: build failed", file=sys.stderr)
        return 1

    cmd = [os.path.join(build_dir, "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", repr(args.seconds),
           "--trace", args.trace]
    if args.trace == "1":
        cmd += ["--spans", os.path.join(build_dir, f"spans-{args.workload}.tsv")]
    sys.stdout.flush()
    try:
        # run() kills the benchmark and waits for it if it overruns.
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
