#!/usr/bin/env python3
"""Build and run the repository benchmark (see perfbench/NOTES.md).

    python3 perfbench/run.py --workload paper-grid --seed 0 --seconds 10 --trace 0

Builds perfbench/ (which compiles the simulator libraries from src/) into
$CARGO_TARGET_DIR, default .bench_build, then runs scd_perfbench, whose
last stdout line is the JSON result. Build output goes to stderr.

    python3 perfbench/run.py --selftest            # the benchmark's self-tests
    python3 perfbench/run.py --workload W --write-ref   # regenerate ref/W.tsv
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("paper-grid", "btb-sweep", "frontend-sweep")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 175


def fail(message):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(2)


def build(build_dir):
    """Configure once, then bring the two perfbench targets up to date."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(f"no simulator sources under {ROOT}/src; run from a full checkout")
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", build_dir, "-j", str(os.cpu_count() or 1),
                  "--target", "scd_perfbench", "perfbench_selftest"])
    for cmd in steps:
        try:
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired) as e:
            fail(f"build step {' '.join(cmd)} failed: {e}")
        if done.returncode != 0:
            fail(f"build step {' '.join(cmd)} exited {done.returncode}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    parser.add_argument("--write-ref", action="store_true")
    args = parser.parse_args()
    if not args.selftest and not args.workload:
        fail("--workload is required")
    if args.seed < 0:
        fail("--seed must be non-negative")

    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR")
                                or os.path.join(ROOT, ".bench_build"))
    build(build_dir)

    if args.selftest:
        cmd = [os.path.join(build_dir, "perfbench_selftest")]
    else:
        cmd = [os.path.join(build_dir, "scd_perfbench"),
               "--workload", args.workload,
               "--seed", str(args.seed),
               "--seconds", repr(args.seconds),
               "--trace", str(args.trace),
               "--ref", os.path.join(HERE, "ref", f"{args.workload}.tsv")]
        if args.trace:
            cmd += ["--trace-out", os.path.join(
                build_dir, f"trace-{args.workload}-{args.seed}.json")]
        if args.write_ref:
            cmd.append("--write-ref")
    try:
        done = subprocess.run(cmd, timeout=RUN_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"{cmd[0]} failed: {e}")
    sys.exit(done.returncode)


if __name__ == "__main__":
    main()
