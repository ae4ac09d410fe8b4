#!/usr/bin/env python3
"""Build the routing library and its benchmark from source, then run one
workload and print its metrics.

Run from the repository root:

    python3 perfbench/run.py --workload transient_ldrg --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --selftest          # the benchmark's own unit tests

The build goes to $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench).
The last line of standard output is the result object printed by
ntr_perfbench. The exit status is the benchmark's: 0 when every routing
matched its checked-in digest.
"""

import argparse
import fcntl
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# A run may take up to 180 s; the benchmark program gets this much of it.
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, base, "perfbench")


def build(targets, tests=False):
    """Configures once (again for the tests), then builds `targets`, which
    is a no-op when they are up to date."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("the routing library sources (src/) are not in this checkout")
    out = build_dir()
    os.makedirs(out, exist_ok=True)
    with open(os.path.join(out, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)  # one build at a time per checkout
        steps = []
        if tests or not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=RelWithDebInfo",
                          f"-DPERFBENCH_BUILD_TESTS={'ON' if tests else 'OFF'}"])
        jobs = str(min(4, os.cpu_count() or 1))
        steps.append(["cmake", "--build", out, "-j", jobs, "--target", *targets])
        for cmd in steps:
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
            if done.returncode != 0:
                fail(f"build step failed: {' '.join(cmd)}")
    return out


def run(cmd):
    """Runs `cmd`, relaying its output, and returns its exit status."""
    try:
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        fail(f"timed out after {RUN_TIMEOUT_S} s: {' '.join(cmd)}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true",
                        help="build and run the benchmark's own unit tests")
    parser.add_argument("--write-digests", action="store_true",
                        help="record the expected routings of every corpus slot")
    args = parser.parse_args()

    if args.selftest:
        out = build(["perfbench_test"], tests=True)
        sys.exit(run([os.path.join(out, "perfbench_test")]))
    if not args.workload:
        fail("--workload is required")

    out = build(["ntr_perfbench"])
    cmd = [os.path.join(out, "ntr_perfbench"), "--workload", args.workload,
           "--digests", os.path.join(HERE, "digests")]
    if args.write_digests:
        cmd.append("--write-digests")
    else:
        cmd += ["--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)]
        if args.trace:
            cmd += ["--spans", os.path.join(out, f"spans-{args.workload}.jsonl")]
    sys.stdout.flush()
    sys.exit(run(cmd))


if __name__ == "__main__":
    main()
