#!/usr/bin/env python3
"""Steadiness report for the end-to-end benchmark.

    python3 e2ebench/steadiness.py [--runs 10] [--sets 1] [--workload W ...]

Runs each workload --runs times, each with another seed, through the
command in BENCHMARK.json. For every end-to-end metric it prints the
median, the quartiles (statistics.quantiles(values, n=4)) and the quartile
spread (q3 - q1) / median next to the metric's bound. With --sets 2 it
repeats the whole set with fresh seeds and also prints the second set's
spread and how far its median moved from the first, in the metric's worse
direction. It also prints the share of failed operations of each run,
which must be the same in every run, and each run's figures on stderr. Run from the root of a checkout; exits 1 when a spread
(setup_s aside) exceeds its bound, a median moved by more than its bound,
the failed shares differ, or a run failed.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(command, workload, seed, seconds):
    cmd = command + ["--workload", workload, "--seed", str(seed),
                     "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise RuntimeError(f"{workload} seed {seed}: incorrect output")
    return result


def summarize(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3, (q3 - q1) / median if median else float("inf")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, choices=(1, 2), default=1)
    parser.add_argument("--workload", action="append")
    args = parser.parse_args()

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = bench["end_to_end"]
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    ok = True
    seed = 101
    for workload in workloads:
        sets = []
        shares = set()
        for _ in range(args.sets):
            values = {m["name"]: [] for m in metrics}
            for _ in range(args.runs):
                try:
                    result = run_once(bench["command"], workload, seed,
                                      bench["run_seconds"])
                except (RuntimeError, subprocess.TimeoutExpired) as e:
                    print(f"FAIL {e}")
                    return 1
                print(workload, seed, json.dumps(result), file=sys.stderr,
                      flush=True)
                seed += 1
                shares.add((result["failed"], result["attempted"],
                            result["failed"] / result["attempted"]))
                for m in metrics:
                    values[m["name"]].append(
                        result["metrics"][m["name"]]["value"])
            sets.append(values)
        print(f"\n{workload}  ({args.runs} runs per set, {args.sets} set(s))")
        print(f"  {'metric':18} {'median':>12} {'q1':>12} {'q3':>12}"
              f" {'spread':>8} {'bound':>6}  {'spread2':>8} {'moved':>8}")
        for m in metrics:
            name, bound = m["name"], m["bound"]
            median, q1, q3, spread = summarize(sets[0][name])
            spreads = [spread]
            second_spread = moved = ""
            if len(sets) == 2:
                second, _, _, spread2 = summarize(sets[1][name])
                spreads.append(spread2)
                second_spread = f"{spread2:8.3f}"
                change = (second - median) / median
                worse = change if m["better"] == "lower" else -change
                moved = f"{worse:+8.3f}"
                if worse > bound:
                    ok = False
                    moved += " !"
            flag = ""
            # setup_s is one cold set-up per process: its spread is shown,
            # only its median is held to the bound.
            if name != "setup_s" and max(spreads) > bound:
                ok = False
                flag = " !"
            print(f"  {name:18} {median:12.4f} {q1:12.4f} {q3:12.4f}"
                  f" {spread:8.3f} {bound:6.2f}  {second_spread:>8}"
                  f" {moved:>8}{flag}")
        distinct = {share for _, _, share in shares}
        print(f"  failed share: {sorted(distinct)}"
              f"{'' if len(distinct) == 1 else '  ! differs between runs'}")
        if len(distinct) != 1:
            ok = False
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
