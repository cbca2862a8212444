"""wienerlift benchmark: run workloads, check their results, print metrics.

    python3 perfbench/run.py [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a checkout; the package is imported from its src/.
Each workload runs in a child process of its own, so that its peak memory is
its own, with one worker thread and one BLAS thread.  The child is started
SETUPS times in all: the extra starts stop after set-up, and setup_s is the
median of the set-up times.  Both setup_s and wall_s are scaled to reference
speed by the kernel in calibrate.py; the table also prints them unscaled.

With --workload the last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics: the end-to-end metrics with
--trace 0, the per-layer metrics with --trace 1.  Without --workload every
workload runs in turn and a table is printed before that line.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
SETUPS = 3
DEADLINE_S = 170.0

WORKLOAD_NAMES = ("reflection-rate", "level2-norms", "cm-check", "eta0", "fbm-rate")


class BenchError(RuntimeError):
    pass


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    env["PYTHONHASHSEED"] = "0"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def _spawn(workload, seed, seconds, trace, workdir, deadline, setup_only=False, spans_out=None):
    cmd = [
        sys.executable, os.path.join(HERE, "worker.py"),
        "--workload", workload, "--seed", str(seed), "--seconds", repr(seconds),
        "--trace", str(trace), "--src", SRC, "--workdir", workdir,
    ]
    if setup_only:
        cmd.append("--setup-only")
    if spans_out:
        cmd += ["--spans-out", spans_out]
    # taken last, just before the child starts
    cmd += ["--t0", repr(time.monotonic())]
    proc = subprocess.Popen(cmd, cwd=ROOT, env=_child_env(), stdout=subprocess.PIPE)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise BenchError(f"{workload}: worker ran past the deadline")
    if proc.returncode != 0:
        raise BenchError(f"{workload}: worker exited with code {proc.returncode}")
    return json.loads(out.decode().strip().splitlines()[-1])


def _units(key: str) -> dict:
    """Metric name -> unit for one metric list of BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[key]}


def run_workload(workload, seed, seconds, trace) -> dict:
    """Run one workload; returns the result object printed as the last line."""
    deadline = time.monotonic() + DEADLINE_S
    workdir = os.path.join(OUT, f"work-{workload}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    spans_out = os.path.join(OUT, f"spans-{workload}-seed{seed}.json") if trace else None
    try:
        setups = [
            _spawn(workload, seed, seconds, trace, workdir, deadline, setup_only=True)
            for _ in range(SETUPS - 1)
        ]
        report = _spawn(workload, seed, seconds, trace, workdir, deadline, spans_out=spans_out)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    setups.append(report)
    for problem in report["problems"]:
        print(f"{workload}: FAILED {problem}", file=sys.stderr)
    if trace:
        values = report["per_layer"]
        units = _units("per_layer")
    else:
        values = dict(report, setup_s=statistics.median(s["setup_s"] for s in setups))
        units = _units("end_to_end")
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    return {
        "correct": report["failed"] == 0,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": metrics,
        "precision_per_s": report["precision_per_s"],
        "raw": {"wall_s": report["wall_raw_s"],
                "setup_s": statistics.median(s["setup_raw_s"] for s in setups)},
        "rounds": report["rounds"],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES, default=None)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "wienerlift", "__init__.py")):
        print(f"error: no wienerlift source under {SRC}", file=sys.stderr)
        return 2
    os.makedirs(OUT, exist_ok=True)
    names = [args.workload] if args.workload else list(WORKLOAD_NAMES)
    results = {}
    try:
        for name in names:
            results[name] = run_workload(name, args.seed, args.seconds, args.trace)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for name, res in results.items():
        cells = [f"{m}={v['value']:.6g} {v['unit']}" for m, v in res["metrics"].items()]
        if not args.trace:
            if res["precision_per_s"] is not None:
                cells.append(f"precision_per_s={res['precision_per_s']:.6g} 1/s")
            cells += [f"unscaled {m}={v:.6g} s" for m, v in res["raw"].items()]
        print(f"{name}: attempted={res['attempted']} failed={res['failed']} "
              f"rounds={res['rounds']} " + " ".join(cells))
    if args.workload:
        keys = ("correct", "attempted", "failed", "metrics")
        final = {k: results[args.workload][k] for k in keys}
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {
                f"{name}.{m}": v for name, r in results.items() for m, v in r["metrics"].items()
            },
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
