"""Span tracing of wienerlift's layers, installed from outside the package.

Each traced function is replaced, in every module that looks it up by name,
by a wrapper that records a span (name, start, end, parent, operation id and
an optional size).  Spans are kept in memory; the worker writes them once at
the end of a run.  Per-layer figures are self times: a span's duration minus
the time its direct child spans cover.

Layer accounting follows the package's modules.  The `_batch` kernels count
toward the layer whose per-path function they batch (`pair_base_batch` as
`lifts`, `homogeneous_norm_batch` as `seminorms`); `parallel_chunks` is not
wrapped, so its time falls to its caller.  `chaos` is not traced.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict

import numpy as np

from wienerlift import _batch, asymptotics, cli, girsanov, grids, lifts, seminorms


def _paths(args, kwargs):
    # sample_values_batch(spec, grid, seed, count, start=0)
    return kwargs["count"] if "count" in kwargs else args[3]


def _batch_surface_bytes(args, kwargs):
    # homogeneous_norm_batch(ambient, grid, values, base2): one (C, n+1, n+1)
    # float64 surface per level-2 symbol, computed from the shapes
    ambient, values = args[0], args[2]
    if ambient.max_degree < 2:
        return 0
    c, n1 = values.shape[0], values.shape[1]
    return c * n1 * n1 * 8


def _graded_surface_bytes(args, kwargs):
    v = args[0]
    if v.ambient.max_degree < 2:
        return 0
    n1 = v.grid.n_steps + 1
    return n1 * n1 * 8


# (layer, span name, original, modules that look it up, size function)
TRACED = [
    ("grids", "sample", grids.sample_values_batch, (grids, asymptotics, girsanov, cli), _paths),
    ("grids", "factor", grids._fbm_cholesky, (grids,), None),
    ("lifts", "pair_base", _batch.pair_base_batch, (asymptotics, girsanov), None),
    ("lifts", "skeleton", lifts.young_skeleton_lift, (asymptotics,), None),
    ("lifts", "to_graded", lifts.to_graded, (asymptotics,), None),
    ("seminorms", "norm_batch", _batch.homogeneous_norm_batch, (asymptotics, girsanov),
     _batch_surface_bytes),
    ("seminorms", "norm", seminorms.homogeneous_norm, (asymptotics,), _graded_surface_bytes),
    ("asymptotics", "empirical_rate", asymptotics.empirical_rate, (asymptotics,), None),
    ("asymptotics", "lift_norm_samples", asymptotics.lift_norm_samples, (asymptotics,), None),
    ("asymptotics", "eta0_estimate", asymptotics.eta0_estimate, (asymptotics,), None),
    ("asymptotics", "objective", asymptotics.eta0_quotient, (asymptotics,), None),
    ("girsanov", "reweight_check", girsanov.reweight_check, (cli,), None),
    ("cli", "main", cli.main, (cli,), None),
]


class Tracer:
    """Records spans while an operation is open; inert otherwise."""

    def __init__(self):
        self.spans: list = []
        self._stack: list[int] = []
        self._op: int | None = None
        self._originals: list = []

    def _wrap(self, layer, name, fn, size):
        def traced(*args, **kwargs):
            if self._op is None:
                return fn(*args, **kwargs)
            parent = self._stack[-1] if self._stack else -1
            index = len(self.spans)
            self.spans.append(None)
            self._stack.append(index)
            amount = size(args, kwargs) if size else 0
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans[index] = (layer, name, start, end, parent, self._op, amount)

        return functools.wraps(fn)(traced)

    def install(self) -> None:
        for layer, name, fn, modules, size in TRACED:
            wrapper = self._wrap(layer, name, fn, size)
            for module in modules:
                attr = fn.__name__
                self._originals.append((module, attr, getattr(module, attr)))
                setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._originals):
            setattr(module, attr, original)
        self._originals.clear()

    def open(self, op_id: int) -> None:
        self._op = op_id

    def close(self) -> None:
        self._op = None

    def layer_metrics(self, op_ids) -> dict:
        """Per-layer self times and counts over the spans of the given operations."""
        wanted = set(op_ids)
        # a span's parent is its position in the full span list
        selected = {
            i: s for i, s in enumerate(self.spans) if s is not None and s[5] in wanted
        }
        child_time = defaultdict(float)
        for s in selected.values():
            if s[4] >= 0:
                child_time[s[4]] += s[3] - s[2]
        self_s = defaultdict(float)
        calls = defaultdict(int)
        amount = defaultdict(int)
        peak_bytes = 0
        objective_total = 0.0
        for i, (layer, name, start, end, _parent, _op, size) in selected.items():
            self_s[(layer, name)] += (end - start) - child_time[i]
            calls[(layer, name)] += 1
            amount[(layer, name)] += size
            if layer == "seminorms":
                peak_bytes = max(peak_bytes, size)
            if name == "objective":
                objective_total += end - start

        def layer_self(layer):
            return sum(v for (lay, _), v in self_s.items() if lay == layer)

        evals = calls[("asymptotics", "objective")]
        return {
            "grids.sample_s": self_s[("grids", "sample")],
            "grids.paths": amount[("grids", "sample")],
            "grids.factor_calls": calls[("grids", "factor")],
            "grids.factor_s": self_s[("grids", "factor")],
            "lifts.base_s": layer_self("lifts"),
            "lifts.base_calls": sum(v for (lay, _), v in calls.items() if lay == "lifts"),
            "seminorms.norm_s": layer_self("seminorms"),
            "seminorms.norm_calls": sum(v for (lay, _), v in calls.items() if lay == "seminorms"),
            "seminorms.surface_bytes": peak_bytes,
            "asymptotics.self_s": layer_self("asymptotics"),
            "asymptotics.objective_evals": evals,
            "asymptotics.eval_us": 1e6 * objective_total / evals if evals else 0.0,
            "girsanov.self_s": layer_self("girsanov"),
            "girsanov.calls": calls[("girsanov", "reweight_check")],
            "cli.self_s": layer_self("cli"),
        }

    def dump(self) -> list:
        return [list(s) for s in self.spans if s is not None]


def median_metrics(per_round: list[dict]) -> dict:
    """Median of each metric over the traced rounds."""
    return {k: float(np.median([r[k] for r in per_round])) for k in per_round[0]}
