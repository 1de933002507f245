#!/usr/bin/env python3
"""Run one workload several times and report how steady each metric is.

    python3 e2ebench/steady.py --workload NAME [--runs 10] [--seconds S]
                               [--trace 0|1] [--out FILE]

Run from the repository root. Each run goes through e2ebench/run.py with its
own seed (1, 2, ..., runs). For every metric it prints the
median, the first and third quartiles (statistics.quantiles, n=4) and the
relative spread (Q3 - Q1) / median, which is what the bounds in
BENCHMARK.json are set against. --out writes every run's JSON result to
FILE. Exits non-zero if a run fails, is not
correct, or reports a different share of failed operations than the others.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"seed {seed}: run failed with exit code {proc.returncode}")
    return json.loads(lines[-1])


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seconds", type=int, default=None,
                    help="run length (default: run_seconds from BENCHMARK.json)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", help="write every run's result here (JSON list)")
    args = ap.parse_args()
    seconds = args.seconds
    if seconds is None:
        with open("BENCHMARK.json") as f:
            seconds = json.load(f)["run_seconds"]

    values, units, shares, ok, results = {}, {}, set(), True, []
    for k in range(args.runs):
        seed = k + 1
        res = run_once(args.workload, seed, seconds, args.trace)
        results.append({"seed": seed, **res})
        ok = ok and res["correct"]
        shares.add((res["failed"], res["attempted"]) if res["failed"] else (0, 1))
        fails = f"{res['failed']}/{res['attempted']} failed"
        wall = res["metrics"].get("wall_s", {}).get("value")
        shown = f" wall_s={wall:.4g}" if wall is not None else ""
        print(f"seed {seed}: correct={res['correct']} {fails}{shown}", file=sys.stderr)
        for name, m in res["metrics"].items():
            values.setdefault(name, []).append(m["value"])
            units[name] = m["unit"]

    if args.out:
        with open(args.out, "w") as f:
            json.dump(results, f, indent=1)
    print(f"{args.workload}: {args.runs} runs of {seconds} s, trace={args.trace}")
    print(f"{'metric':28} {'unit':8} {'median':>14} {'q1':>14} {'q3':>14} {'spread':>8}")
    for name, v in values.items():
        med = statistics.median(v)
        q1, _, q3 = statistics.quantiles(v, n=4) if len(v) > 1 else (v[0], v[0], v[0])
        spread = (q3 - q1) / med if med else float("nan")
        print(f"{name:28} {units[name]:8} {med:14.6g} {q1:14.6g} {q3:14.6g} {spread:8.4f}")
    ratios = {f / a for f, a in shares}
    if not ok or len(ratios) > 1:
        print("NOT STEADY: a run was incorrect or the failed share differed", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
