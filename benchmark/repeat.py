#!/usr/bin/env python3
"""Run one workload N times and summarise each metric; compare two sets.

    python3 benchmark/repeat.py --workload sibench-hot --runs 10 --out a.json
    python3 benchmark/repeat.py --compare a.json b.json

A set is N runs of benchmark/run.py on one commit, seeds seed0 .. seed0+N-1.
For every metric it prints the median, the first and third quartiles
(statistics.quantiles, n=4) and the spread: (Q3 - Q1) / median. --compare
reads two saved sets of the same workload and, for every end-to-end metric
with a bound in BENCHMARK.json, says whether the second median is worse than
the first by more than the bound, and whether the spread exceeds it.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def summarise(values):
    med = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = med
    spread = (q3 - q1) / med if med else float("nan")
    return med, q1, q3, spread


def run_set(workload, runs, seed0, seconds, trace):
    results = []
    for i in range(runs):
        seed = seed0 + i
        cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        if proc.returncode != 0:
            sys.exit(f"run {i} (seed {seed}) exited with code {proc.returncode}")
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        result["seed"] = seed
        results.append(result)
        print(f"run {i + 1}/{runs} seed {seed}: correct={result['correct']} "
              f"attempted={result['attempted']} failed={result['failed']}",
              file=sys.stderr, flush=True)
    return results


def print_set(name, results):
    print(f"== {name}: {len(results)} runs, all correct: "
          f"{all(r['correct'] for r in results)}, failed share: "
          f"{sorted({r['failed'] / r['attempted'] for r in results})}")
    print(f"{'metric':34} {'unit':>9} {'median':>12} {'Q1':>12} {'Q3':>12} {'spread':>7}")
    for m, first in results[0]["metrics"].items():
        vals = [r["metrics"][m]["value"] for r in results]
        med, q1, q3, spread = summarise(vals)
        print(f"{m:34} {first['unit']:>9} {med:12.6g} {q1:12.6g} {q3:12.6g} {spread:7.1%}")


def compare(path_a, path_b):
    spec = load_spec()
    with open(path_a) as f:
        a = json.load(f)
    with open(path_b) as f:
        b = json.load(f)
    print_set(path_a, a["results"])
    print_set(path_b, b["results"])
    ok = True
    print(f"\n{'metric':16} {'bound':>6} {'median A':>12} {'median B':>12} "
          f"{'B vs A':>8} {'spread A':>9} {'spread B':>9}  verdict")
    for m in spec["end_to_end"]:
        name, bound = m["name"], m["bound"]
        va = [r["metrics"][name]["value"] for r in a["results"]]
        vb = [r["metrics"][name]["value"] for r in b["results"]]
        ma, _, _, sa = summarise(va)
        mb, _, _, sb = summarise(vb)
        worse = (ma - mb) / ma if m["better"] == "higher" else (mb - ma) / ma
        verdict = []
        if worse > bound:
            verdict.append("WORSE THAN BOUND")
        if name != "setup_s" and max(sa, sb) > bound:
            verdict.append("SPREAD OVER BOUND")
        ok = ok and not verdict
        print(f"{name:16} {bound:6.2f} {ma:12.6g} {mb:12.6g} {-worse:+8.1%} "
              f"{sa:9.1%} {sb:9.1%}  {', '.join(verdict) or 'ok'}")
    share_a = sorted({r["failed"] / r["attempted"] for r in a["results"]})
    share_b = sorted({r["failed"] / r["attempted"] for r in b["results"]})
    if share_a != share_b:
        ok = False
        print(f"failed share differs: {share_a} vs {share_b}")
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seed0", type=int, default=1)
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace", type=int, default=0, choices=(0, 1))
    ap.add_argument("--out", help="save the set as JSON")
    ap.add_argument("--compare", nargs=2, metavar=("A", "B"))
    args = ap.parse_args()
    if args.compare:
        return compare(*args.compare)
    if not args.workload:
        ap.error("--workload or --compare is required")
    seconds = args.seconds or load_spec()["run_seconds"]
    results = run_set(args.workload, args.runs, args.seed0, seconds, args.trace)
    if args.out:
        with open(args.out, "w") as f:
            json.dump({"workload": args.workload, "seconds": seconds,
                       "trace": args.trace, "results": results}, f, indent=1)
    print_set(f"{args.workload} trace={args.trace} seconds={seconds}", results)
    return 0


if __name__ == "__main__":
    sys.exit(main())
