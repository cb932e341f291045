#!/usr/bin/env python3
"""Tiny-size self-check of the benchmark.

Runs every workload of BENCHMARK.json for one second, untraced twice
with the same seed and traced once, and checks that

* the last output line is the result object with exactly the keys
  `correct`, `attempted`, `failed` and `metrics`, with every product
  correct;
* every end-to-end (untraced) or per-layer (traced) metric named in
  BENCHMARK.json is emitted, with its declared unit and a finite value,
  and no other metric is;
* `modelled_cycles_per_mul` is identical across the two untraced runs.

Run from the repository root:  python3 perfbench/selfcheck.py
"""

import json
import math
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SEED = "7"


def run(bench, workload, trace):
    cmd = bench["command"] + [
        "--workload", workload, "--seed", SEED, "--seconds", "1", "--trace", str(trace),
    ]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if out.returncode != 0:
        sys.exit(f"{workload} trace={trace}: exit {out.returncode}\n{out.stderr[-2000:]}")
    return json.loads(out.stdout.strip().splitlines()[-1])


def check(result, declared, where):
    problems = []
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        problems.append(f"result keys {sorted(result)}")
    if result.get("correct") is not True or result.get("failed") != 0:
        problems.append(f"correct={result.get('correct')} failed={result.get('failed')}")
    if not isinstance(result.get("attempted"), int) or result["attempted"] < 1:
        problems.append(f"attempted={result.get('attempted')}")
    metrics = result.get("metrics", {})
    names = {m["name"]: m["unit"] for m in declared}
    for extra in sorted(set(metrics) - set(names)):
        problems.append(f"undeclared metric {extra}")
    for name, unit in names.items():
        got = metrics.get(name)
        if got is None:
            problems.append(f"missing {name}")
        elif got.get("unit") != unit:
            problems.append(f"{name} unit {got.get('unit')!r}, declared {unit!r}")
        elif not isinstance(got.get("value"), (int, float)) or not math.isfinite(got["value"]):
            problems.append(f"{name} value {got.get('value')!r}")
    return [f"{where}: {p}" for p in problems]


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    problems = []
    for workload in (w["name"] for w in bench["workloads"]):
        first = run(bench, workload, 0)
        second = run(bench, workload, 0)
        traced = run(bench, workload, 1)
        problems += check(first, bench["end_to_end"], f"{workload} untraced")
        problems += check(second, bench["end_to_end"], f"{workload} untraced (repeat)")
        problems += check(traced, bench["per_layer"], f"{workload} traced")
        cycles = [r["metrics"].get("modelled_cycles_per_mul", {}).get("value") for r in (first, second)]
        if cycles[0] != cycles[1]:
            problems.append(f"{workload}: modelled_cycles_per_mul differs for one seed: {cycles}")
        print(f"{workload}: checked, modelled_cycles_per_mul {cycles[0]}")
    for p in problems:
        print(p, file=sys.stderr)
    sys.exit(1 if problems else 0)


if __name__ == "__main__":
    main()
