"""One workload in one process: set up, run whole rounds, check, report.

Run by run.py with PYTHONPATH pointing at the checkout's src/.  Prints one
JSON line on stdout.  With --setup-only it stops after set-up and reports
only setup_s.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
import traceback


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--t0", type=float, required=True, help="time.monotonic() at spawn")
    parser.add_argument("--src", required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--spans-out", default=None, help="where a traced run writes its spans")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    import numpy as np

    import wienerlift

    # never measure an installed copy in place of the checkout's source
    here = os.path.realpath(os.path.dirname(wienerlift.__file__))
    if os.path.dirname(here) != os.path.realpath(args.src):
        print(f"wienerlift imported from {here}, not from {args.src}", file=sys.stderr)
        return 2

    from calibrate import REFERENCE_S, kernel_s
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](args.seed, args.workdir)
    workload.warm_up()
    setup_raw_s = time.monotonic() - args.t0
    setup_s = setup_raw_s * REFERENCE_S / kernel_s()
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s, "setup_raw_s": setup_raw_s}))
        return 0

    tracer = None
    if args.trace:
        from spans import Tracer

        tracer = Tracer()

    operations = workload.operations()
    op_times = {name: [] for name, _ in operations}
    scaled_times = {name: [] for name, _ in operations}
    round_times = {False: [], True: []}
    traced_rounds = []
    first = {}
    problems = []
    attempted = failed = 0
    se = None
    op_id = 0
    start = time.perf_counter()
    rnd = 0
    # whole rounds until the time is spent; at least two, so that the
    # determinism check always has a repeat.  Traced runs alternate untraced
    # and traced rounds and stop only after a pair.
    while rnd < 2 or time.perf_counter() - start < args.seconds or (tracer and rnd % 2):
        traced = bool(tracer) and rnd % 2 == 1
        if traced:
            tracer.install()
        round_ops = []
        round_start = time.perf_counter()
        written = 0
        for name, call in operations:
            op_id += 1
            attempted += 1
            kernel_before = kernel_s()
            if traced:
                tracer.open(op_id)
            t = time.perf_counter()
            try:
                result = call()
            except Exception:  # a raising call is a failed operation, not a crash
                failed += 1
                problems.append(f"{name}: raised\n{traceback.format_exc()}")
                continue
            finally:
                elapsed = time.perf_counter() - t
                if traced:
                    tracer.close()
            round_ops.append(op_id)
            # timed in traced rounds too, so that trace.overhead_s compares
            # rounds that spend the same time in the kernel
            kernel = 0.5 * (kernel_before + kernel_s())
            if not traced:
                op_times[name].append(elapsed)
                scaled_times[name].append(elapsed * REFERENCE_S / kernel)
            found = workload.check(name, result)
            digest = workload.fingerprint(name, result)
            if first.setdefault(name, digest) != digest:
                found.append(f"{name}: result differs from the first run of this operation")
            if found:
                failed += 1
                problems.extend(found)
            written += workload.bytes_written(name, result)
            se_here = workload.precision_se(name, result)
            if se_here is not None:
                se = se_here
        round_times[traced].append(time.perf_counter() - round_start)
        if traced:
            tracer.uninstall()
            traced_rounds.append((round_ops, written))
        rnd += 1

    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if not all(op_times.values()):
        print("an operation never completed:\n" + "\n".join(problems[:5]), file=sys.stderr)
        return 1
    # per-operation medians of the times scaled to reference speed (see
    # calibrate.py), summed over one round (one operation on most workloads)
    wall_s = float(sum(np.median(times) for times in scaled_times.values()))
    wall_raw_s = float(sum(np.median(times) for times in op_times.values()))
    report = {
        "setup_s": setup_s,
        "setup_raw_s": setup_raw_s,
        "attempted": attempted,
        "failed": failed,
        "problems": problems[:20],
        "rounds": rnd,
        "wall_s": wall_s,
        "wall_raw_s": wall_raw_s,
        "peak_rss_mb": peak_rss_mb,
        "precision_per_s": 1.0 / (se * se * wall_s) if se else None,
    }
    if tracer:
        from spans import median_metrics

        per_round = []
        for ops, written in traced_rounds:
            metrics = tracer.layer_metrics(ops)
            metrics["cli.bytes_written"] = written
            per_round.append(metrics)
        layer = median_metrics(per_round)
        layer["trace.overhead_s"] = float(
            np.median(round_times[True]) - np.median(round_times[False])
        )
        layer["asymptotics.precision_per_s"] = report["precision_per_s"] or 0.0
        report["per_layer"] = layer
        if args.spans_out:
            with open(args.spans_out, "w") as fh:
                json.dump(
                    {"fields": ["layer", "name", "start", "end", "parent", "op", "size"],
                     "spans": tracer.dump()},
                    fh,
                )
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
