#!/usr/bin/env python3
"""Steadiness check: runs the benchmark in two sets of the same build and
reports, per workload and end-to-end metric, each set's median and
quartiles, the spread (interquartile range over median) and whether the two
sets agree within the bounds in BENCHMARK.json.

Run from the repository root:

    python3 perfbench/steadiness.py                     # 2 sets x 10 seeds, every workload
    python3 perfbench/steadiness.py --sets 1 --runs 5 --workloads serve_mix

Run i of a set uses seed (--first-seed + i), so both sets see the same
inputs. Beside each run it prints the raw reference-kernel time and the raw
solve wall time, so machine drift stays visible next to what it corrects.
A metric passes when its spread in each set is within its bound and the
second set's median is no worse than the first's by more than the bound; a
pass whose spread is over a third of the bound is marked as such. Exit status 1 when any metric fails.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.stderr.write(done.stderr[-2000:])
        raise SystemExit(f"run failed ({done.returncode}): {' '.join(cmd)}")
    result = json.loads(lines[-1])
    diagnostics = {}
    for line in lines:
        if line.startswith("diagnostics "):
            diagnostics = json.loads(line[len("diagnostics "):])
    return result, diagnostics


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return q1, med, q3, (q3 - q1) / abs(med) if med else 0.0


def worse_by(first, second, better):
    """How much worse the second median is, as a share of the first."""
    if first == 0:
        return 0.0
    change = (second - first) / abs(first)
    return change if better == "lower" else -change


def main():
    config = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--sets", type=int, default=2, choices=(1, 2))
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=config["run_seconds"])
    parser.add_argument("--workloads", nargs="*",
                        default=[w["name"] for w in config["workloads"]])
    parser.add_argument("--json", help="also write every run's result to this file")
    args = parser.parse_args()

    records = {w: [[] for _ in range(args.sets)] for w in args.workloads}
    for s in range(args.sets):
        for w in args.workloads:
            for i in range(args.runs):
                seed = args.first_seed + i
                result, diag = run_once(w, seed, args.seconds)
                records[w][s].append(result)
                solve = result["metrics"].get("solve_s", {}).get("value")
                print(f"set {s + 1} {w:18s} seed {seed:3d}  bench.ref_kernel_ms "
                      f"{diag.get('bench.ref_kernel_ms', float('nan')):7.3f}  "
                      f"bench.wall_solve_s {diag.get('bench.wall_solve_s', float('nan')):8.3f}  "
                      f"solve_s {solve:8.3f}  correct {result['correct']}", flush=True)
    if args.json:
        with open(args.json, "w") as out:
            json.dump(records, out, indent=1)

    ok = True
    print()
    header = "set 1: q1 / median / q3 (spread)"
    if args.sets == 2:
        header += " | set 2: q1 / median / q3 (spread) | worse"
    print(f"{'workload':18s} {'metric':12s} {'bound':>5s}  {header}")
    for w in args.workloads:
        for metric in config["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            cells, verdict = [], "pass"
            stats = []
            for runs in records[w]:
                q1, med, q3, sp = spread([r["metrics"][name]["value"] for r in runs])
                stats.append(med)
                cells.append(f"{q1:.5g} / {med:.5g} / {q3:.5g} ({sp:.3f})")
                if sp > bound:
                    verdict = "FAIL spread"
                elif sp >= bound / 3 and verdict == "pass":
                    verdict = "pass (spread over a third of the bound)"
            if args.sets == 2:
                worse = worse_by(stats[0], stats[1], metric["better"])
                cells.append(f"{worse:+.3f}")
                if worse > bound:
                    verdict = "FAIL drift"
            ok &= verdict.startswith("pass")
            print(f"{w:18s} {name:12s} {bound:5.2f}  {' | '.join(cells)}  {verdict}")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
