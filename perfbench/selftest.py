#!/usr/bin/env python3
"""Self-test of the benchmark at tiny scale (about a minute after the build).

    python3 perfbench/selftest.py

Run from the repository root. For every workload, with --trace 0 and 1, it
checks that the result line has exactly the keys correct/attempted/failed/
metrics, that every metric BENCHMARK.json names is printed with its unit and
a finite value, and that the run is correct with no failed operation. It then
re-runs each workload with one reference answer perturbed and checks that
the correctness gate trips. Exits 1 on the first class of failure found.
"""
import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(workload, trace, *extra):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", "7", "--seconds", "2", "--trace", str(trace),
           "--tiny", *extra]
    out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    problems = []
    for w in (w["name"] for w in spec["workloads"]):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            result = run(w, trace)
            where = f"{w} trace={trace}"
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{where}: result keys {sorted(result)}")
            if result["correct"] is not True or result["failed"] != 0:
                problems.append(f"{where}: correct={result['correct']} "
                                f"failed={result['failed']}")
            if result["attempted"] < 1:
                problems.append(f"{where}: attempted={result['attempted']}")
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = result["metrics"]
            if set(got) != set(want):
                problems.append(f"{where}: missing {sorted(set(want) - set(got))}"
                                f" unexpected {sorted(set(got) - set(want))}")
            for name, unit in want.items():
                m = got.get(name)
                if m is None:
                    continue
                if m.get("unit") != unit:
                    problems.append(f"{where}: {name} unit {m.get('unit')} "
                                    f"!= {unit}")
                v = m.get("value")
                if not isinstance(v, (int, float)) or not math.isfinite(v):
                    problems.append(f"{where}: {name} value {v!r}")
        tripped = run(w, 0, "--perturb-reference")
        if tripped["correct"] is not False:
            problems.append(f"{w}: perturbed reference did not trip the gate")
    for p in problems:
        print("FAIL", p)
    print("selftest:", "ok" if not problems else f"{len(problems)} problems")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
