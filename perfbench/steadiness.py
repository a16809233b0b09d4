#!/usr/bin/env python3
"""Steadiness report: runs the benchmark repeatedly on one commit and prints,
per metric, the median, the quartiles and the spread (interquartile range as
a share of the median) next to the bound BENCHMARK.json fixes.

    python3 perfbench/steadiness.py --workload serve_miss --runs 10 \
        --first-seed 1 [--seconds S] [--trace 0|1] [--save runs.json]
    python3 perfbench/steadiness.py --compare first.json second.json

Each run uses its own seed (first-seed, first-seed+1, ...), so a claim can be
re-checked on seeds never used before without editing code. --compare checks
that two saved sets of runs agree: every end-to-end metric's second median
is no worse than the first by more than its bound. Run from the repository
root. Exits 1 when a spread (setup_s excepted) exceeds its bound, a run is
incorrect, or --compare finds a regression.
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


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def summarize(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def report(results, spec):
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    ok = True
    for r in results["runs"]:
        if not r["correct"] or r["failed"]:
            print(f"run incorrect or with failures: {r}")
            ok = False
    names = list(results["runs"][0]["metrics"])
    print(f"{results['workload']} trace={results['trace']} "
          f"runs={len(results['runs'])} seeds={results['seeds']}")
    print(f"{'metric':32} {'median':>14} {'q1':>14} {'q3':>14} "
          f"{'spread':>8} {'bound':>6}")
    for name in names:
        values = [r["metrics"][name]["value"] for r in results["runs"]]
        med, q1, q3, spread = summarize(values)
        bound = bounds.get(name, {}).get("bound")
        mark = ""
        if bound is not None:
            if spread > bound and name != "setup_s":
                mark = "  OVER BOUND"
                ok = False
            elif spread > bound / 3:
                mark = "  over a third"
        print(f"{name:32} {med:14.6g} {q1:14.6g} {q3:14.6g} {spread:8.3f} "
              f"{'' if bound is None else bound:>6}{mark}")
    return ok


def compare(first, second, spec):
    ok = True
    for m in spec["end_to_end"]:
        name = m["name"]
        a = statistics.median(r["metrics"][name]["value"] for r in first["runs"])
        b = statistics.median(r["metrics"][name]["value"] for r in second["runs"])
        worse = (b - a) / a if m["better"] == "lower" else (a - b) / a
        verdict = "ok" if worse <= m["bound"] else "WORSE THAN BOUND"
        ok &= worse <= m["bound"]
        print(f"{first['workload']:10} {name:18} first {a:12.6g} second "
              f"{b:12.6g} worse_by {worse:+.3f} bound {m['bound']}  {verdict}")
    return ok


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    parser.add_argument("--save")
    parser.add_argument("--compare", nargs=2, metavar="RUNS_JSON")
    args = parser.parse_args()
    spec = load_spec()

    if args.compare:
        sets = []
        for path in args.compare:
            with open(path) as f:
                sets.append(json.load(f))
        return 0 if compare(sets[0], sets[1], spec) else 1

    if not args.workload:
        parser.error("--workload is required unless --compare is given")
    seconds = args.seconds or spec["run_seconds"]
    seeds = list(range(args.first_seed, args.first_seed + args.runs))
    runs = []
    for seed in seeds:
        runs.append(run_once(args.workload, seed, seconds, args.trace))
        print(f"seed {seed}: " + ", ".join(
            f"{k}={v['value']:.6g}" for k, v in runs[-1]["metrics"].items()
            if k in {m['name'] for m in spec['end_to_end']}), flush=True)
    results = {"workload": args.workload, "trace": args.trace, "seeds": seeds,
               "seconds": seconds, "runs": runs}
    if args.save:
        with open(args.save, "w") as f:
            json.dump(results, f, indent=1)
    return 0 if report(results, spec) else 1


if __name__ == "__main__":
    sys.exit(main())
