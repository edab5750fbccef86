#!/usr/bin/env python3
"""Build and run the end-to-end benchmark on one workload.

Run from anywhere inside a checkout of the repository:

    python3 bench/e2e/run.py --workload fig5-paper --seed 1 --seconds 13 --trace 0

--seconds has no default: the benchmark's run length is run_seconds in
BENCHMARK.json.

The first run configures and builds the rtcm library and the driver into
build-e2e/ at the repository root (later runs rebuild incrementally).  Build
output goes to stderr.  The driver's report goes to stdout; its last line is
one JSON object with the keys correct, attempted, failed and metrics.  With
--trace 1 the driver also writes its span file to
build-e2e/spans/<workload>-seed<seed>.json.

The exit code is nonzero, with no JSON line printed, when the build fails;
it is nonzero after the JSON line when an output check failed.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.normpath(os.path.join(HERE, "..", ".."))
BUILD = os.path.join(ROOT, "build-e2e")
DRIVER = os.path.join(BUILD, "rtcm_e2e")

BUILD_TIMEOUT_S = 840
# The driver measures for --seconds, finishes the pass it is in, then runs
# its cross-checks; anything far beyond that is a hang.
RUN_SLACK_S = 120


def build():
    """Configure once, then build incrementally; False on any failure."""
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", BUILD, "-j", jobs])
    for cmd in steps:
        try:
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S, check=False)
        except (OSError, subprocess.TimeoutExpired) as err:
            print(f"build step {' '.join(cmd)} failed: {err}", file=sys.stderr)
            return False
        if done.returncode != 0:
            print(f"build step {' '.join(cmd)} exited {done.returncode}",
                  file=sys.stderr)
            return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not build():
        return 1
    cmd = [DRIVER, f"--workload={args.workload}", f"--seed={args.seed}",
           f"--seconds={args.seconds}"]
    if args.trace:
        spans = os.path.join(BUILD, "spans")
        os.makedirs(spans, exist_ok=True)
        cmd += ["--trace", "--spans=" + os.path.join(
            spans, f"{args.workload}-seed{args.seed}.json")]
    sys.stdout.flush()
    try:
        done = subprocess.run(cmd, timeout=args.seconds + RUN_SLACK_S,
                              check=False)
    except subprocess.TimeoutExpired:
        print("driver timed out", file=sys.stderr)
        return 1
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())
