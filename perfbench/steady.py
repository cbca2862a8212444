"""Run-to-run spread of the end-to-end metrics against their bounds.

    python3 perfbench/steady.py [--runs 10] [--first-seed 1] [--workload NAME ...]

Runs run.py once per seed on each workload, one run at a time, and prints
for each metric the median, the quartiles and the spread (Q3 - Q1) / median
next to the bound in BENCHMARK.json.  A spread is steady when it is below a
third of the bound; setup_s is reported but has no spread limit.  Also
reports the share of failed operations, which must be the same in every run.
The raw results go to perfbench/out/steady.json.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workload", action="append", choices=names)
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    raw = {}
    steady = True
    for name in args.workload or names:
        runs = []
        for seed in range(args.first_seed, args.first_seed + args.runs):
            cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", name,
                   "--seed", str(seed), "--seconds", str(bench["run_seconds"]), "--trace", "0"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=200)
            if proc.returncode != 0:
                print(f"{name} seed {seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
                return 1
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            result["seed"] = seed
            runs.append(result)
        raw[name] = runs
        shares = {r["failed"] / r["attempted"] for r in runs}
        print(f"{name}: failed share {sorted(shares)} over {len(runs)} runs")
        steady = steady and len(shares) == 1
        for metric, bound in bounds.items():
            values = [r["metrics"][metric]["value"] for r in runs]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med
            ok = metric == "setup_s" or spread < bound / 3
            steady = steady and ok
            print(f"  {metric:12s} median {med:10.5g}  q1 {q1:10.5g}  q3 {q3:10.5g}  "
                  f"spread {spread:6.3f}  bound {bound}  {'ok' if ok else 'WIDE'}")
    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    with open(os.path.join(HERE, "out", "steady.json"), "w") as fh:
        json.dump(raw, fh, indent=1)
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
